"""Seeded inputs and command lists for the four benchmark workloads.

Every input is generated from the workload seed with ``otk.rand`` and numpy,
written as matrix JSON, and paired with the exit code its command must give
under ``--assert``.  Each expected verdict holds by construction, not by
running otk:

* ``orthogonal_pair`` and its k-cluster / unitary generalisations make the
  norm-attainment compression trace-free, so 0 lies in its numerical range
  (true); the pair (T, T) has epsilon_min = 1 (false).
* A trace-free matrix has 0 in its numerical range (true); a trace-free
  matrix of norm 1 plus 2I has its range in Re z >= 1 (false), and so has
  its maximal numerical range, which is a subset.
* ``check st-criterion``: with S = -V diag(e^{i phi}) V^*, |phi| <= 0.3, and
  ||T|| = 0.99, the form <By, y> at the top singular vector has real part
  below -0.9; T and S are real (V orthogonal, the phases in conjugate pairs),
  so W(B) is symmetric about the real axis and meets (-inf, 0] (true).
  With ||T|| <= 0.4, Re W(B) >= 1 - 2 ||T||^2 > 0 (false).
* ``check brehmer`` / ``check regular``: simultaneously diagonal contractions
  commute doubly and pass Brehmer positivity; T2^* T1 is then normal with
  eigenvalues chosen all around 0 (true) or in the open right half plane
  (false).  A generic non-commuting pair fails Brehmer (false).

A cycle is the list of ``Command`` a workload runs once; a run replays a
whole number of cycles.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from otk.catalog import scenario_ids
from otk.matcore import save_matrix
from otk.rand import (
    commuting_unitary_contraction,
    complex_gaussian,
    orthogonal_pair,
    random_contraction,
    random_unitary,
)

EXIT_TRUE = 0
EXIT_FALSE = 2

WORKLOADS = ("verdict-cli", "verdict-heavy", "dilate-windows", "battery")


@dataclass(frozen=True)
class Command:
    """One otk invocation: ``python -m otk.cli <argv>``."""

    key: str
    argv: tuple[str, ...]
    expect: int
    # The --out file; for a DilationWindow export also its kind ("window" or
    # "pair") and input matrix files, for the reload-and-reverify check.
    out: str | None = None
    out_kind: str | None = None
    out_bases: tuple[str, ...] = ()


class _Writer:
    """Writes one cycle's inputs into its own directory."""

    def __init__(self, directory: str, rng: np.random.Generator, suffix: str):
        os.makedirs(directory, exist_ok=True)
        self.dir = directory
        self.rng = rng
        self.suffix = suffix

    def save(self, name: str, M: np.ndarray) -> str:
        path = os.path.join(self.dir, name + ".json")
        save_matrix(path, M)
        return path

    def command(self, tag: str, argv, expect: int, *rest) -> Command:
        return Command(tag + self.suffix, tuple(argv), expect, *rest)


# ---------------------------------------------------------------------------
# input families
# ---------------------------------------------------------------------------


def _trace_free(rng, d: int) -> np.ndarray:
    G = complex_gaussian(rng, d, d)
    G = G - (np.trace(G) / d) * np.eye(d)
    return G / np.linalg.norm(G, 2)


def _right_half_plane(rng, d: int) -> np.ndarray:
    G = _trace_free(rng, d)
    return G + 2.0 * np.eye(d)


def _clustered(rng, d: int, k: int) -> np.ndarray:
    """Contraction whose top k singular values are exactly 1."""
    U, V = random_unitary(rng, d), random_unitary(rng, d)
    s = np.concatenate([np.ones(k), np.sort(rng.uniform(0.2, 0.8, d - k))[::-1]])
    return (U * s) @ V.conj().T


def _orth_partner(rng, T: np.ndarray, k: int) -> np.ndarray:
    """A with the k-dimensional attainment compression of T^* A trace-free."""
    _, _, Vh = np.linalg.svd(T)
    X = Vh[:k].conj().T
    B = random_contraction(rng, T.shape[0])
    C = X.conj().T @ T.conj().T @ B @ X
    A = B - (np.trace(C) / k) * (T @ X @ X.conj().T)
    return A * (0.9 / np.linalg.norm(A, 2))


def _real_rotation_unitary(rng, d: int, spread: float) -> np.ndarray:
    """Real orthogonal -V diag(e^{i phi}) V^* with |phi| <= spread."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    R = np.zeros((d, d))
    for j in range(0, d - 1, 2):
        a = rng.uniform(-spread, spread)
        c, s = math.cos(a), math.sin(a)
        R[j : j + 2, j : j + 2] = [[c, -s], [s, c]]
    if d % 2:
        R[d - 1, d - 1] = 1.0
    return (-(Q @ R @ Q.T)).astype(np.complex128)


def _st_true(rng, d: int) -> tuple[np.ndarray, np.ndarray]:
    G = rng.standard_normal((d, d))
    T = (G * (0.99 / np.linalg.norm(G, 2))).astype(np.complex128)
    return T, _real_rotation_unitary(rng, d, 0.3)


def _st_false(rng, d: int) -> tuple[np.ndarray, np.ndarray]:
    return random_contraction(rng, d, norm=float(rng.uniform(0.2, 0.4))), random_unitary(rng, d)


def _diag_pair(rng, d: int, around_zero: bool) -> tuple[np.ndarray, np.ndarray]:
    """Commuting normal contractions with T2^* T1 spread around 0 or not."""
    V = random_unitary(rng, d)
    r1 = rng.uniform(0.2, 0.7, d)
    r2 = rng.uniform(0.2, 0.7, d)
    p2 = rng.uniform(0.0, 2.0 * np.pi, d)
    if around_zero:
        rel = 2.0 * np.pi * (np.arange(d) + rng.uniform(0.25, 0.75, d)) / d
    else:
        rel = rng.uniform(-1.0, 1.0, d)
    d1 = r1 * np.exp(1j * (p2 + rel))
    d2 = r2 * np.exp(1j * p2)
    return (V * d1) @ V.conj().T, (V * d2) @ V.conj().T


# ---------------------------------------------------------------------------
# workloads: one cycle each
# ---------------------------------------------------------------------------


def _pair(w: _Writer, kind: str, d: int, truth: bool) -> tuple[np.ndarray, np.ndarray]:
    rng = w.rng
    if kind in ("orth", "approx", "halmos"):
        T, A = orthogonal_pair(rng, d, unit_norm=(kind == "halmos"))
        return (T, A) if truth else (T, T)
    if kind == "st-criterion":
        return _st_true(rng, d) if truth else _st_false(rng, d)
    if kind == "brehmer" and not truth:
        return random_contraction(rng, d), random_contraction(rng, d)
    return _diag_pair(rng, d, around_zero=truth)  # brehmer true, regular


def _check(w: _Writer, kind: str, tag: str, T, A, truth: bool) -> Command:
    extra = ("--eps", "0.25") if kind == "approx" else ()
    files = (w.save(f"{tag}-T", T), w.save(f"{tag}-A", A))
    return w.command(tag, ("check", kind, *files, "--assert", *extra), EXIT_TRUE if truth else EXIT_FALSE)


def _numrange(w: _Writer, d: int, truth: bool, tag: str, extra=()) -> Command:
    M = _trace_free(w.rng, d) if truth else _right_half_plane(w.rng, d)
    return w.command(tag, ("numrange", w.save(tag, M), "--assert", *extra), EXIT_TRUE if truth else EXIT_FALSE)


def _compression_pair(w: _Writer, d: int, k: int, truth: bool) -> tuple[np.ndarray, np.ndarray]:
    """T with a k-dimensional norm-attainment subspace (unitary when k = d).

    The partner makes the k x k compression trace-free (true), or is
    A = T M / ||M|| with M = 2 + a trace-free part of norm 1: the compression
    is then X^* M X / ||M||, whose range lies in Re z >= 1/3, so
    epsilon_min >= 1/3 > 0.25 (false).
    """
    T = random_unitary(w.rng, d) if k == d else _clustered(w.rng, d, k)
    if truth:
        return T, _orth_partner(w.rng, T, k)
    M = _right_half_plane(w.rng, d)
    return T, T @ M / np.linalg.norm(M, 2)


def verdict_cli(w: _Writer) -> list[Command]:
    cmds = []
    for d, first in ((4, True), (16, False)):
        for i, kind in enumerate(("orth", "approx", "halmos", "brehmer", "regular")):
            truth = first ^ bool(i % 2)
            tag = f"{kind}-d{d}-{truth}"
            if d == 16 and kind in ("orth", "approx"):
                # a 4-cluster T: 4 x 4 compression
                tag += "-cluster4"
                pair = _compression_pair(w, d, 4, truth)
            else:
                pair = _pair(w, kind, d, truth)
            cmds.append(_check(w, kind, tag, *pair, truth))
        cmds.append(_numrange(w, d, first, f"numrange-d{d}-{first}", ("--angles", "64")))
    for truth in (True, False):
        cmds.append(_check(w, "st-criterion", f"st-d4-{truth}", *_pair(w, "st-criterion", 4, truth), truth))
    for sid in scenario_ids():
        cmds.append(w.command(f"reproduce-{sid}", ("reproduce", sid, "--assert"), EXIT_TRUE))
    return cmds


def verdict_heavy(w: _Writer) -> list[Command]:
    cmds = []
    for d, truths in ((16, (True, False)), (32, (True, False)), (64, (True,))):
        for truth in truths:
            pair = _pair(w, "st-criterion", d, truth)
            cmds.append(_check(w, "st-criterion", f"st-d{d}-{truth}", *pair, truth))
    # Unitary T: the attainment subspace is all of C^d, so the compression
    # is d x d.
    for kind, truth in (("orth", True), ("orth", False), ("approx", True)):
        pair = _compression_pair(w, 64, 64, truth)
        cmds.append(_check(w, kind, f"{kind}-unitary-d64-{truth}", *pair, truth))
    cmds.append(_numrange(w, 64, True, "numrange-d64-true", ("--angles", "1024")))
    cmds.append(_numrange(w, 64, False, "maximal-d64-false", ("--maximal",)))
    for truth in (True, False):
        cmds.append(_check(w, "regular", f"regular-d32-{truth}", *_pair(w, "regular", 32, truth), truth))
    return cmds


def dilate_windows(w: _Writer) -> list[Command]:
    rng = w.rng
    cmds = []

    def add(tag, argv, kind=None, bases=()):
        out = os.path.join(w.dir, f"out-{tag}.json")
        cmds.append(w.command(tag, (*argv, "--out", out, "--assert"), EXIT_TRUE, out, kind, bases))

    for d, slots in ((4, (16, 128)), (8, (16,))):
        t = w.save(f"schaffer-d{d}", random_contraction(rng, d))
        for m in slots:
            add(f"schaffer-d{d}-m{m}", ("dilate", "schaffer", t, "--slots", str(m)), "window", (t,))
    T, A = orthogonal_pair(rng, 4)
    t, a = w.save("pair-T", T), w.save("pair-A", A)
    add("generalized-m32", ("dilate", "generalized", t, "--slots", "32"), "window", (t,))
    for kind in ("forced", "adjoint-trick"):
        add(f"{kind}-m32", ("dilate", kind, t, a, "--slots", "32"), "pair", (t, a))
    add("hat", ("dilate", "hat", t, a))
    for d, m in ((2, 13), (4, 41)):
        T, S = commuting_unitary_contraction(rng, d)
        tag = f"ando-d{d}-m{m}"
        add(tag, ("dilate", "ando", w.save(f"{tag}-T", T), w.save(f"{tag}-S", S), "--slots", str(m)))
    add("rho-m64", ("dilate", "rho-example", "--rho", f"{rng.uniform(0.5, 2.0):.6f}", "--slots", "64"))
    return cmds


# ando runs twice the trials so that three of the four invocations take about
# as long as each other: the median then falls inside that group rather than
# in the gap between two equal groups.
BATTERY_TRIALS = {"ando": 60, "bj": 30, "schaffer": 30, "rho": 30}


def battery(w: _Writer) -> list[Command]:
    cmds = []
    for suite, trials in BATTERY_TRIALS.items():
        seed = str(int(w.rng.integers(1, 2**31)))
        argv = ("property-run", suite, "--trials", str(trials), "--seed", seed, "--assert",
                "--dump-dir", os.path.join(w.dir, "dumps"))
        cmds.append(w.command(f"property-{suite}", argv, EXIT_TRUE))
    return cmds


_CYCLE = {
    "verdict-cli": verdict_cli,
    "verdict-heavy": verdict_heavy,
    "dilate-windows": dilate_windows,
    "battery": battery,
}


def generate(workload: str, seed: int, workdir: str, cycles: int) -> list[list[Command]]:
    """Write the inputs of `cycles` cycles under workdir; return the cycles.

    Every cycle runs the same commands on fresh inputs (fresh suite seeds
    for the battery), so a run averages over as many inputs as it has cycles.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    runs = []
    for c in range(cycles):
        w = _Writer(os.path.join(workdir, f"c{c}"), rng, f"@c{c}")
        runs.append(_CYCLE[workload](w))
    return runs
