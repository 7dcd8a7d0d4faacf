"""The demo scripts' output is part of the byte-identical contract: each
demo runs in a fresh interpreter and its stdout must match the sha256
pinned here."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout; a change of any byte breaks the contract
DEMO_SHA256 = {
    "gl3_gelfand_tsetlin.py": "e90b7d6cb5573541a360f72c55b0b3829881e3dd10e3166d905e97b0bb88a52f",
    "orthogonal_bases.py": "bdf4dfcfd6d99b1cec48730570d5ca852a5d9e294612b3df6e6fd0dadb7e4017",
    "quantum_minors_and_drinfeld.py":
        "7a866b631f1306e20706e3885f862279a52eb0e455bfb72634394f59567368af",
    "symplectic_sp4.py": "e695840a78367912db4389275a7dea8e8bff4eb09f2f104bce0bf8e4998ea163",
    "yangian_y2.py": "4b9c0178aabf26e685cf0d402f577b94d4dfa8ffbbacea7c732bd08e0d64c8e1",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[name]
