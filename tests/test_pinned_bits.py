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
  to stdout;
* ``detect_sampled`` on linear and non-linear pairs, on the square and
  the disk, at scales 2**-300, 1e-5, 1, 3.7 and 2**300 (the projection
  route), and on pairs with no linear part (the degenerate route), each
  route under its own digest: alpha, iterations, status, trace and the
  bytes of ``corrected``.

A change that claims to keep outputs bit for bit must pass it unedited.
"""

import hashlib
import math
import struct

import numpy as np

from rotalign.cli import main
from rotalign.fields import (
    LinearField,
    SymmetricDomain,
    double_winding,
    eval_field,
    inner_rotate,
    outer_rotate,
    sample,
    total_rotate,
)
from rotalign.registration import DetectorConfig, detect_sampled, oracle_detect

PAIRS = 300

NUMERIC_DIGEST = "720d6f3bda98404f1281a8163bec24c4e8c0543a63d75f778565073f72b9c8bc"
CLI_DIGEST = "5b5226ce09ff1132ce8c9dfee42970d00177ad2194b9f5b8a4eac486e4f2eb8e"
PROJECTION_DIGEST = "7cfe529e577da394a19afefbe95b61f5bf39bd5dd9f8823fb6d30e056af7aea5"
DEGENERATE_DIGEST = "8de9893a925cd74abef7d24e516629ab21748e2194da67a4a833a1083b919b3a"
SAMPLED_SCALES = (2.0 ** -300, 1e-5, 1.0, 3.7, 2.0 ** 300)


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


def _turned(field, t: float):
    """The closure of field totally rotated by t: x -> R(t) field(R(-t) x)."""
    c, s = math.cos(t), math.sin(t)

    def turned(x1, x2):
        f1, f2 = field(c * x1 + s * x2, -s * x1 + c * x2)
        return c * f1 - s * f2, s * f1 + c * f2

    return turned


def _sampled_pairs():
    """(route, v, u, cfg): sample pairs for every route of ``detect_sampled``, at each scale.

    Per domain and scale: a linear field against its turned copy (the
    laid-out copy), the same plus 0.5 |x|^2 x (the resampled copy), both
    on the "projection" route, and a constant flow on the "degenerate"
    route.  On the disk, the double winding too ("degenerate").  n = 40
    leaves a partial row block.
    """
    rng = np.random.default_rng(2323)
    n = 40
    for domain in (SymmetricDomain.square(1.0), SymmetricDomain.disk(1.0)):
        for k in SAMPLED_SCALES:
            a11, a12, a21, a22 = (k * rng.uniform(-1.0, 1.0, 4)).tolist()
            t = float(rng.uniform(-1.5, 1.5))
            cfg = DetectorConfig(eps=1e-8, max_iter=200)
            v = LinearField(a11, a12, a21, a22, domain)
            yield "projection", sample(v, n), sample(total_rotate(v, t), n), cfg

            def bent(x1, x2):
                r = 0.5 * k * (x1 * x1 + x2 * x2)
                return a11 * x1 + a12 * x2 + r * x1, a21 * x1 + a22 * x2 + r * x2

            yield "projection", sample(bent, n, domain), sample(_turned(bent, t), n, domain), cfg

            def flow(x1, x2, g=(k * 0.6, -k * 0.3)):
                return np.full_like(x1, g[0]), np.full_like(x2, g[1])

            cfg = DetectorConfig(eps=1e-8, max_iter=12)
            yield ("degenerate", sample(flow, n, domain), sample(_turned(flow, t), n, domain),
                   cfg)
            if domain.kind == "disk":
                def winding(x1, x2, w=double_winding()):
                    w1, w2 = w(x1, x2)
                    return k * w1, k * w2

                yield ("degenerate", sample(winding, n, domain),
                       sample(_turned(winding, t), n, domain), DetectorConfig(eps=1e-8, max_iter=5))


def _sampled_digest(route: str) -> str:
    digest = hashlib.sha256()
    for _, v, u, cfg in filter(lambda pair: pair[0] == route, _sampled_pairs()):
        r = detect_sampled(v, u, cfg)
        digest.update(f"{r.iterations} {r.status.value}".encode())
        _floats(digest, [r.alpha])
        for entry in r.trace:
            _floats(digest, [entry.phi, entry.alpha_after])
            digest.update(str(entry.branch).encode())
        digest.update(r.corrected.values.tobytes())
    return digest.hexdigest()


def test_detect_sampled_outputs_are_pinned():
    # The projection route; the degenerate route has the next test.
    assert _sampled_digest("projection") == PROJECTION_DIGEST


def test_detect_sampled_degenerate_outputs_are_pinned():
    assert _sampled_digest("degenerate") == DEGENERATE_DIGEST
