"""Byte-level goldens.

The result digest was taken from the last version whose numerators were
dicts of terms; the packed kernel must reproduce it byte for byte.  The
cache digest is that of the packed cache format, torhom-series-packed-3;
it changes only with ENCODER_VERSION.
"""

import hashlib
import json

from torhom.cli import main
from torhom.recursion import MemoTable

# SHA-256 of the compact JSON of the "result" object of `torhom torus 8 8 --format json`
T88_RESULT = "1a8dbcacb071da18e3a27809dab77b2108d005b1a391a99aec7189d771cd7ef9"
# SHA-256 of the file written by `torhom torus 6 6 --format json --cache FILE`
T66_CACHE = "d1ac379434c8a51c0697ad2c9102b3263523f3004b6f8726c428fa88df99a703"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_torus_8_8_result(capsys):
    assert main(["torus", "8", "8", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert sha256(json.dumps(result, separators=(",", ":")).encode()) == T88_RESULT


def test_torus_6_6_cache_file(capsys, tmp_path):
    path = tmp_path / "t66.tsv"
    assert main(["torus", "6", "6", "--format", "json", "--cache", str(path)]) == 0
    capsys.readouterr()
    assert sha256(path.read_bytes()) == T66_CACHE


def test_save_load_save_is_byte_identical(capsys, tmp_path):
    first = tmp_path / "first.tsv"
    assert main(["torus", "6", "6", "--format", "json", "--cache", str(first)]) == 0
    capsys.readouterr()
    second = tmp_path / "second.tsv"
    MemoTable(path=str(first)).save(str(second))
    assert second.read_bytes() == first.read_bytes()
