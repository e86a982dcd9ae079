"""One digest over the package's numeric answers and the bytes its CLI writes.

The other tests compare with tolerances or check layouts; this one pins
every bit.  It hashes

* ``oracle_detect`` on rotated copies and on unrelated pairs, at
  coefficient scales from 1e-200 to 1e200, on squares and disks;
* the coefficients of ``total_rotate``, ``outer_rotate`` and
  ``inner_rotate`` of those fields, and ``eval_field`` values;
* the bytes of ``rotalign sample`` (a field and the ``counterexample``
  preset, each with ``--rotated-out``);
* the bytes of ``rotalign experiment`` as CSV and as JSON, to a file and
  to stdout.

A change that claims to keep outputs bit for bit must pass it unedited.
"""

import hashlib
import struct

import numpy as np

from rotalign.cli import main
from rotalign.fields import (
    LinearField,
    SymmetricDomain,
    eval_field,
    inner_rotate,
    outer_rotate,
    total_rotate,
)
from rotalign.registration import oracle_detect

PAIRS = 300

NUMERIC_DIGEST = "720d6f3bda98404f1281a8163bec24c4e8c0543a63d75f778565073f72b9c8bc"
CLI_DIGEST = "5b5226ce09ff1132ce8c9dfee42970d00177ad2194b9f5b8a4eac486e4f2eb8e"


def _pairs():
    """(v, u, alpha): half rotated copies, half unrelated pairs, scales 1e-200 to 1e200."""
    rng = np.random.default_rng(20131)
    domains = (SymmetricDomain.square(1.0), SymmetricDomain.disk(1.0),
               SymmetricDomain.square(0.75), SymmetricDomain.disk(2.5))
    for i in range(PAIRS):
        scale = 10.0 ** int(rng.integers(-200, 201))
        domain = domains[i % len(domains)]
        v = LinearField(*(scale * rng.uniform(-1.0, 1.0, 4)).tolist(), domain)
        alpha = float(rng.uniform(-np.pi, np.pi))
        if i % 2:
            u = LinearField(*(scale * rng.uniform(-1.0, 1.0, 4)).tolist(), domain)
        else:
            u = total_rotate(v, alpha)
        yield v, u, alpha


def _floats(digest, values) -> None:
    digest.update(struct.pack(f"<{len(values)}d", *values))


def test_numeric_outputs_are_pinned():
    digest = hashlib.sha256()
    points = ((0.3, -0.7), (-0.9, 0.2), (2.0, 0.1), (0.0, -0.0))
    for v, u, alpha in _pairs():
        _floats(digest, [oracle_detect(v, u)])
        for rotate in (total_rotate, outer_rotate, inner_rotate):
            _floats(digest, rotate(v, alpha).coefficients())
            _floats(digest, rotate(u, -alpha).coefficients())
        for x in points:
            value = eval_field(v, x)
            _floats(digest, [value.s, value.x, value.y, value.b])
    assert digest.hexdigest() == NUMERIC_DIGEST


def test_cli_outputs_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()

    def run(*argv, files=()):
        assert main(list(argv)) == 0
        digest.update(capsys.readouterr().out.encode())
        for name in files:
            digest.update((tmp_path / name).read_bytes())

    run("sample", "--field", "0.3,-1.2,0.7,0.45", "--domain", "disk:1.5", "--n", "9",
        "--alpha", "0.37", "--out", str(tmp_path / "f.csv"),
        "--rotated-out", str(tmp_path / "f_rot.csv"), files=("f.csv", "f_rot.csv"))
    run("sample", "--field=-0.0,0,-0.0,3e150", "--n", "6", "--alpha", "0",
        "--out", str(tmp_path / "g.csv"), "--rotated-out", str(tmp_path / "g_rot.csv"),
        files=("g.csv", "g_rot.csv"))
    run("sample", "--preset", "counterexample", "--n", "8", "--alpha", "0.9",
        "--out", str(tmp_path / "c.csv"), "--rotated-out", str(tmp_path / "c_rot.csv"),
        files=("c.csv", "c_rot.csv"))
    campaign = ("experiment", "--trials", "300", "--eps", "1e-3", "--seed", "13")
    run(*campaign, "--out", str(tmp_path / "r.csv"), files=("r.csv",))
    run(*campaign, "--out", str(tmp_path / "r.json"), files=("r.json",))
    run(*campaign, "--format", "csv", "--out", str(tmp_path / "r.txt"), files=("r.txt",))
    run(*campaign, "--format", "csv")
    run(*campaign)
    run(*campaign, "--coeff-space", "--format", "json")
    assert digest.hexdigest() == CLI_DIGEST
