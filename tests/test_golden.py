"""Byte-level goldens.

The envelope digests were recorded before the four series commands
shared one output builder; each command must print them byte for byte.
The result digest was taken from the last version whose numerators were
dicts of terms; the packed kernel must reproduce it byte for byte.  The
cache digest is that of the packed cache format, torhom-series-packed-3,
in a file that holds the query's result and nothing else; it was
recorded again when the command stopped saving the pairs below the root.
Its one entry line is byte for byte the root's line of the earlier
whole-table file.
"""

import hashlib
import json
import shlex

import pytest

from torhom.cli import main
from torhom.recursion import MemoTable

# SHA-256 of the compact JSON of the "result" object of `torhom torus 8 8 --format json`
T88_RESULT = "1a8dbcacb071da18e3a27809dab77b2108d005b1a391a99aec7189d771cd7ef9"
# SHA-256 of the file written by `torhom torus 6 6 --format json --cache FILE`
T66_CACHE = "b54900e7b812f7c7391708f2cac53a8db097921542052120cf04efe452fd6408"
# SHA-256 of the stdout of `torhom COMMAND --format FORMAT`, each JSON envelope
# with its `timing` block popped and dumped compactly again
ENVELOPES = {
    "torus 4 6": {
        "json": "c760d8c7618966e96d14c820ac78ad6b60974be46e6747cda1e7d0e8e5150929",
        "human": "fbdc3c7ef65b37238632f61c9dd4c0bd05e433f8437410febd404c21db63d815",
        "latex": "5ae53c00ea182fd95e4d26540af24c9e133f783a14052d35896dc6f407a68bc5",
    },
    "torus 2 3 --normalized": {
        "json": "11f2367cefda6972e0f1f34e2fdc685252032a2e717c89e9e79f35829d29e678",
        "human": "c00797d5c9663bb68468fc22c555e3619153e79ed64e5ec40b392e32e0ac2b40",
        "latex": "808ecfb416dbe17a1d88c27ddc93ffbfc98eb3a0465c8d740d45f4ed01435120",
    },
    "torus 3 4 --expand 2": {
        "json": "d7499467d642630e56a3ad4b2eb2801add4a9f542c8423d8cee5b8ee14fd667d",
        "human": "b32e480801a016701e1f65413b135c5962aae12b3efc9d059402ed415e889907",
        "latex": "ccaedaecb11cc88f484393889900c0aefac95dea0dadc333c4a5c70c9132f683",
    },
    "pair 0100 0010": {
        "json": "675a3e184a7d05066030ca5205a3013b5d36a8fbc7af985c689e1dad46ebb970",
        "human": "9e646987e5dcee911c8a35ab7319fd1a23b12443e2a319a9424b9a3a4db92475",
        "latex": "b11e66934ca30454d803d735ee2a9ab1925316b7bb1d3a754f48896c7917e6bf",
    },
    "pair '' ''": {
        "json": "490fcdab3ed4fdd9b0847b8ddf83b6e42a2502ec17f4050cb9296a762717fe7b",
        "human": "f9487aa584777e675691f20f5daf3e7c4031d251d75c59e21558a364726843b7",
        "latex": "f9487aa584777e675691f20f5daf3e7c4031d251d75c59e21558a364726843b7",
    },
    # recorded again when `colored` stopped showing the example ordering
    "colored 2 3 2 --expand 1": {
        "json": "55463818b24450df8957c7abc24ad94824ad639e0f810236dad870221e15e0a7",
        "human": "3c6d8f4b3003c4fe47dbd0064de6c0e1b358da20ff9ec625c5552ff22e735e5a",
        "latex": "9edcc9a3316259f1229f90dafef6131a4545fb0d605b2f18829f8a11bdd6b599",
    },
    "sigma 5 3,0,1,5 --stats": {
        "json": "767411aaefbc5722eb91f0db90850387238fe6cf92f7a3fa12f3f09361786487",
        "human": "016736c2a2723c750c69189ac1463832f7c1c9c679d3be1f5bb7f5e9d0e08806",
        "latex": "d01f101fc6b4b520c9f846a54d67fe4d8e397493e30df3acd6752e7d96813e6d",
    },
    "sigma 2 1,0 --g --expand 1": {
        "json": "36368edee0dbb0647b1931e76a2b367d616327defd878387b8f027e5a771df7b",
        "human": "a2b8f067af3f561dbaf36d232bb6cbbc1ede0ab494861492b1f81730272e6b65",
        "latex": "3ecbcd08ab0ea1beef63375da9b41dcfe10ad14b900c33b038c7c98ab92f8f64",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_torus_8_8_result(capsys):
    assert main(["torus", "8", "8", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert sha256(json.dumps(result, separators=(",", ":")).encode()) == T88_RESULT


@pytest.mark.parametrize("command, fmt", [(c, f) for c in ENVELOPES for f in ENVELOPES[c]])
def test_envelope(capsys, command, fmt):
    assert main(shlex.split(command) + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        env = json.loads(out)
        assert out == json.dumps(env, separators=(",", ":")) + "\n"
        assert list(env)[-1] == "timing"
        env.pop("timing")
        out = json.dumps(env, separators=(",", ":")) + "\n"
    assert sha256(out.encode()) == ENVELOPES[command][fmt]


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
