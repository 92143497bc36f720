"""Byte-exact CLI reports and map transcripts.

Each CLI case runs one command with ``--out`` and pins the SHA-256 of the
written report followed by everything the command printed.  Each map
case pins the SHA-256 of a transcript of the map and its exact inverse
on fixed points.  A refactor that keeps these digests keeps every report
and every map value byte-identical.
"""

import hashlib
from fractions import Fraction as F

import pytest

from simplexboundary import chain
from simplexboundary.cli import main
from simplexboundary.comfort import (
    SimplexHomeo,
    counterexample_map,
    extend_from_boundary,
    extend_from_layer,
    lambda_lift,
)
from simplexboundary.geometry import (
    BaryPoint,
    center,
    format_point,
    random_rational_points,
    vertex,
)
from simplexboundary.pl1d import sigma_polygon
from simplexboundary.theta import THETA1_DIM_CAP, ThetaKey, theta

from samplers import boundary_samples, cross_samples, layer_samples

REPORTS = {
    ("verify-boundary", "--m", "9,4", "--n", "2", "--n-max", "3"):
        "17846d244acbf61d8bc280ce93aa4c99cb9bd1080b12650ef4d0bbf79c3e07ba",
    ("verify-boundary", "--m", "1", "--n", "2", "--n-max", "6"):
        "bf2c391c9263562729729f7c2d4d23d3b689b69f7beb64435fc26a2940977255",
    # The trivial dimension-1 certificate, and σ = 0 past dimension 2.
    ("verify-boundary", "--m", "1,-1", "--n", "1", "--n-max", "4"):
        "56512aed9e80504f455f88c268ab8704f723dc705567495c6540c73e3fe1ad70",
    ("verify-equations", "--L", "1", "--n", "1", "--n-max", "2"):
        "3e74bb3f1722c6fe0dfb92fca831a53080b13d9d14413e08874d7070e330842b",
    # The levels where the instances share the most inner composites.
    ("verify-equations", "--L", "1", "--n", "3", "--n-max", "4"):
        "2837434ff5e8143ad29504987eeaf46e2d3c1d68438423b4046a3379d61c5fdc",
    ("verify-equations", "--L", "0", "--n", "1", "--n-max", "5"):
        "e693b999694e84eb72b1285410b7b278100965469b667c8b0db60e71d7235e1f",
    ("homology", "--m", "9,4", "--n-max", "8"):
        "9a91e9d1227b2b0a56a5435665256c542b8fe672098141f454676a002544cd14",
    ("homology", "--m", "9,4", "--n-max", "12"):
        "5685b5e1bc679786a785be23a59e380cba675248ceed1fa00ec25fbd1903f19f",
    ("homology", "--m", "1,-1"):
        "3d156fee46fc84ae3953d703902c7b0db3a84bacc3770f84ed74712752826382",
    # The report holds only the rows, so equal rows give equal digests:
    # σ = -2 for both (-2) and (3,-5), and σ = 0 for (0) as for (1,-1).
    ("homology", "--m", "-2", "--n-max", "8"):
        "feb4d8a31f8d42793866bfd731e01cd1c214368025e6626c36da82d25f0ad98b",
    ("homology", "--m", "0", "--n-max", "8"):
        "3d156fee46fc84ae3953d703902c7b0db3a84bacc3770f84ed74712752826382",
    ("homology", "--m", "3,-5", "--n-max", "8"):
        "feb4d8a31f8d42793866bfd731e01cd1c214368025e6626c36da82d25f0ad98b",
    ("figure", "--m", "9,4", "--alpha", "1/6", "--format", "svg"):
        "aa52362804bc94a3d29f86edd2e6661d032948cd53b309ddf31406e73f7e7c27",
    (
        "eval", "--map", "theta:L=1,n=2,i=1",
        "--point", "[0,1/6,5/6]", "--point", "[1/6,1/6,2/3]",
    ):
        "a863369727ff7c02bdfcea917aeb693ad11f09a57afd110816c76af79d8a9512",
    ("eval", "--map", "counterexample", "--point", "[1/12,1/4,2/3]", "--point", "[0,1/8,7/8]"):
        "fa034d856670ea302e7706314765dcb626236c2456d5180ab0213b7c2f933910",
}


@pytest.mark.parametrize("argv", list(REPORTS), ids=lambda argv: " ".join(argv))
def test_report_bytes(argv, tmp_path, capsys):
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == 0
    data = out.read_bytes() + capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == REPORTS[argv]


#: Reports of runs in which Θ(1,1,1) swaps the two coordinates, so some
#: instances fail with witnesses; recorded before both verify commands
#: shared one report writer.
FAILING_REPORTS = {
    ("verify-equations", "--L", "1", "--n", "1", "--n-max", "2"):
        "f82e62d9f6677df8120725bc0c546bb36432e0f299a0a1d945cf319b918693b1",
    ("verify-boundary", "--m", "9,4", "--n", "2", "--n-max", "4"):
        "032c5b1faa8fd243baf2d51668534a02c03a0689253bb630212b4a3f58d2893c",
}


@pytest.mark.parametrize("argv", list(FAILING_REPORTS), ids=lambda argv: " ".join(argv))
def test_failing_report_bytes(argv, tmp_path, capsys, monkeypatch):
    def swap(x):
        return BaryPoint([x[1], x[0]])

    swapped = SimplexHomeo(1, swap, swap)
    real = chain.theta
    monkeypatch.setattr(chain, "theta", lambda key: swapped if key == ThetaKey(1, 1, 1) else real(key))
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == 1
    data = out.read_bytes() + capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == FAILING_REPORTS[argv]


# ---------------------------------------------------------------------------
# Forward and inverse transcripts of the simplex homeomorphisms


def _tied(n):
    """n equal coordinates 1/(2(n+1)) and a zero with coordinates tied at
    1/(n+1): the breakpoint of Θ(1,n,0)'s polygon and the lift threshold."""
    half = F(1, 2 * (n + 1))
    pts = [BaryPoint([half] * n + [1 - n * half])]
    if n >= 2:
        c = F(1, n + 1)
        pts.append(BaryPoint([0] + [c] * (n - 1) + [2 * c]))
    return pts


def _transcript_points(n, levels):
    pts = [center(n), vertex(n, 0), *_tied(n)]
    pts += boundary_samples(n, 3, seed=7)
    pts += random_rational_points(n, 3, seed=7, max_denominator=400)
    for level in levels:
        pts += cross_samples(n, level, 2, seed=7)
        pts += layer_samples(n, level, 2, seed=7)
    return pts


def _lift_of(alpha, beta, n):
    return lambda_lift(sigma_polygon(alpha, beta, F(1, n + 1)), n)


def _zero_layer(n):
    lift = _lift_of(F(1, 2 * (n + 1)), F(1, 2 * (n + 2)), n)
    return extend_from_layer(lift, 0, 0, n, lift.inverse_at)


def _theta1_maps(top=THETA1_DIM_CAP):
    for n in range(1, top + 1):
        yield f"theta:L=1,n={n},i=1", theta(ThetaKey(1, n, 1)), (F(1, 2 * (n + 1)),)


def _maps():
    for n in range(1, 7):
        yield f"theta:L=1,n={n},i=0", theta(ThetaKey(1, n, 0)), (F(1, 2 * (n + 1)),)
    for n in (2, 3, 4):
        lift = _lift_of(F(1, 6), F(1, 8), n)
        yield (
            f"layer:n={n}",
            extend_from_layer(lift, F(1, 6), F(1, 8), n, lift.inverse_at),
            (F(1, 6), F(1, 8)),
        )
        lift = _lift_of(F(1, 6), F(1, 7), n)
        yield (
            f"boundary:n={n}",
            extend_from_boundary(lift, F(1, 6), F(1, 7), n, lift.inverse_at),
            (F(1, 6), F(1, 7)),
        )
    for n in (2, 3):
        yield f"layer0:n={n}", _zero_layer(n), ()
    yield "counterexample", counterexample_map(), (F(1, 8), F(1, 16))
    yield from _theta1_maps()


def _outcome(fn, x):
    try:
        return format_point(fn(x))
    except ValueError as exc:
        return f"!{type(exc).__name__}"


def transcript(homeo, levels, inverse=True):
    """One line per point: the point, its image and (with ``inverse``) its
    preimage."""
    columns = (homeo, homeo.inverse_at) if inverse else (homeo,)
    lines = []
    for x in _transcript_points(homeo.dim, levels):
        lines.append(" ".join([format_point(x), *(_outcome(fn, x) for fn in columns)]) + "\n")
    return "".join(lines)


TRANSCRIPTS = {
    "theta:L=1,n=1,i=0": "4ddbc9b0e03b648c122d7a64eedc5c311c6e2fd4554f5fe6f9d783b154ce2a19",
    "theta:L=1,n=2,i=0": "92f364585bc7f7cdbeca1af139cbb8e1fc1479bcf9e6839e670f5c6c35c4a42a",
    "theta:L=1,n=3,i=0": "5f596f817d9e64410b26a09d5df820a44d33e172eb887bdc60185b4fe79922dc",
    "theta:L=1,n=4,i=0": "c24a4101f6e75adccc1701952106e5efa2102f94fcd0a46c4a090a2b9ad03ecf",
    "theta:L=1,n=5,i=0": "a25e8b71948025c3baa13806a5c720c2fad0ea52c877550fcc4504ae1c5d082e",
    "theta:L=1,n=6,i=0": "871b980cbee52a7c7cf6b5b4fda13e89c9b9d98a3b4d4fd65a45e40b43e5dba9",
    "layer:n=2": "3add27ce6a57edcd9e530bdf13179565df585e83d04eae7de7590015eefd72e4",
    "boundary:n=2": "06cac64d7a3d133eb0f83fa4e0830daef08ae0e87c73091c6250c079b36b9879",
    "layer:n=3": "fc524da420025521b46c8686c35d2285a3460f43f8b20cee3a05a79325cc453a",
    "boundary:n=3": "a44c2adb8d9daf11a0f1fc1e310ed36b68eec03fdf96e8e33f4b954b2e4a106a",
    "layer:n=4": "4b2a769ded765fa57572487c93dfcd4edbfa2138d0243254ec999ca58c8cca34",
    "boundary:n=4": "76bbc50e98302a687f5c7c1058016a64b05312ee7c37fac77e7072c99a3c69c7",
    "layer0:n=2": "fc518b73abb700ba345c2ad2e5d15049e6a5decd0f2ada4c6ac452d407d9263d",
    "layer0:n=3": "9a0f173de7dfec6121f5ecb8b597d26a8572f969dd060c0657b1ecef30f888e8",
    "counterexample": "23214b4bab97b528c5cc84938d5701f7d79f6b85ecc80af887cb30456f1d2029",
    "theta:L=1,n=1,i=1": "f8386b14543db124218eacc2dd97e3b4fe14bc88049554e888f32a10beed990a",
    "theta:L=1,n=2,i=1": "48dd53881097002864f3d7e2b08660073ea842e251bc28a19c42836ec0b1a3f4",
    "theta:L=1,n=3,i=1": "cb7f189062d18ec6713fd733e552dc2e27b93a1d2a739c041d2be41aee4284a4",
    "theta:L=1,n=4,i=1": "633298e75b2939a4b03774fc58efbda423688e99341269e25395deabf6e5d86c",
    "theta:L=1,n=5,i=1": "6f2799bc7711051b62259dde8d0cd21380ada000987b975dcf837137f79cdc26",
    "theta:L=1,n=6,i=1": "cd0f66b5608623bd8d62bb69c4d37eacf13e3d66dbc3bef71a10a97d2e791c5b",
    # Recorded when the dimension cap was raised from 6 to 8, with the
    # code of that time and only its cap changed.
    "theta:L=1,n=7,i=1": "f0dade5a9a5b808d7475619f3d9df9c7592e091dd2810e0c742f36ed077199b8",
    "theta:L=1,n=8,i=1": "e6d1263e06d1e5dc78fa05bafb7de48c390e2258a928bed132d007d0543d5b06",
}


def test_map_transcripts():
    digests = {
        name: hashlib.sha256(transcript(homeo, levels).encode("utf-8")).hexdigest()
        for name, homeo, levels in _maps()
    }
    assert digests == TRANSCRIPTS


#: Point and image columns of the Θ(1,n,1) transcripts, recorded while
#: Θ(1,n,1) for n >= 2 was still built without an inverse.
FORWARD_TRANSCRIPTS = {
    "theta:L=1,n=1,i=1": "155fdd27322c947bad1cd4348921c83b22ce388971c109b66b4a3df686346e59",
    "theta:L=1,n=2,i=1": "91af3a165bf88bb72335dcc984e71295fabaa449a00cc615e487644f529a2347",
    "theta:L=1,n=3,i=1": "1a58d761c197a6f2cba0fdbcf028574f330ec3e1366b6ec781d5e8cecc40bf6c",
    "theta:L=1,n=4,i=1": "cbc034fc187dab8b1c0c17131fd7057299354d2ff02f05c26e362d1e553b3788",
    "theta:L=1,n=5,i=1": "352c90aec7483055a245612c5a3928344723951f43e4a9197df62881e146e53a",
    "theta:L=1,n=6,i=1": "7cae66d1c24e393993ac0e7aca356f58d47499f959543c1ea33eca8ed8d88b6c",
}


def test_theta1_forward_transcripts():
    digests = {
        name: hashlib.sha256(transcript(homeo, levels, inverse=False).encode("utf-8")).hexdigest()
        for name, homeo, levels in _theta1_maps(6)
    }
    assert digests == FORWARD_TRANSCRIPTS
