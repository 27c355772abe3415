"""Reference attention kernels: quadratic ReLU attention and its linear form.

``naive_relu_attention`` materializes the full n x n attention matrix:
similarities are ReLU(scaled dot products), row-normalized. For
non-negative queries and keys the similarity kernel factorizes, and
``factored_linear_attention`` computes the identical result without the
n x n matrix, so its multiply count grows linearly in the patch count n
instead of quadratically. Both kernels accept an optional multiply counter
so the scaling claim can be checked by instrumentation rather than trusted.

Rows whose similarity mass is zero have no defined normalization; both
kernels emit zero rows there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class AttentionInput:
    """Query/key/value matrices, one row per patch."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.q.ndim != 2 or self.k.ndim != 2 or self.v.ndim != 2:
            raise ValueError("q, k, v must be 2-D matrices")
        n = self.q.shape[0]
        if self.k.shape != self.q.shape or self.v.shape[0] != n:
            raise ValueError(
                f"shape mismatch: q {self.q.shape}, k {self.k.shape}, v {self.v.shape}"
            )
        for name, m in (("q", self.q), ("k", self.k), ("v", self.v)):
            if not np.all(np.isfinite(m)):
                raise ValueError(f"non-finite entries in {name}")

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def d_k(self) -> int:
        return self.q.shape[1]

    @property
    def d_v(self) -> int:
        return self.v.shape[1]


@dataclass
class OpCounter:
    """Tallies scalar multiplications performed by the kernels."""

    multiplies: int = 0

    def add(self, count: int) -> None:
        self.multiplies += int(count)


def _safe_rowwise_divide(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    # zero-denominator rows are defined as zero output rows
    positive = denom > 0.0
    safe = np.where(positive, denom, 1.0)
    return np.where(positive, num / safe, 0.0)


def naive_relu_attention(
    inp: AttentionInput, counter: OpCounter | None = None
) -> np.ndarray:
    """All-to-all attention: ReLU of scaled q.k similarities, row-normalized."""
    n, d_k, d_v = inp.n, inp.d_k, inp.d_v
    qs = inp.q / math.sqrt(d_k)
    sim = np.maximum(qs @ inp.k.T, 0.0)
    if counter is not None:
        counter.add(n * d_k)          # query scaling
        counter.add(n * n * d_k)      # q @ k.T
        counter.add(n * n * d_v)      # attention @ v
    num = sim @ inp.v
    denom = sim.sum(axis=1, keepdims=True)
    return _safe_rowwise_divide(num, denom)


def factored_linear_attention(
    inp: AttentionInput, counter: OpCounter | None = None
) -> np.ndarray:
    """Linear-cost equivalent of the naive kernel for non-negative q, k.

    Computes ReLU(q') @ (ReLU(k).T @ v) over ReLU(q') @ (ReLU(k).T @ 1)
    where q' is the scaled query; the n x n matrix is never materialized.
    """
    n, d_k, d_v = inp.n, inp.d_k, inp.d_v
    qs = np.maximum(inp.q / math.sqrt(d_k), 0.0)
    kr = np.maximum(inp.k, 0.0)
    kv = kr.T @ inp.v
    ksum = kr.sum(axis=0)
    if counter is not None:
        counter.add(n * d_k)          # query scaling
        counter.add(n * d_k * d_v)    # k.T @ v
        counter.add(n * d_k * d_v)    # q @ (k.T v)
        counter.add(n * d_k)          # q @ (k.T 1)
    num = qs @ kv
    denom = (qs @ ksum)[:, None]
    return _safe_rowwise_divide(num, denom)


def attention_mac_ratio(
    res_full: tuple[int, int], res_low: tuple[int, int], patch: int
) -> float:
    """Per-layer linear-attention cost ratio between two input resolutions.

    For a linear kernel the cost ratio equals the patch-count ratio; both
    resolutions must be divisible by the patch size.
    """
    if patch <= 0:
        raise ValueError(f"patch size must be positive: {patch}")
    for res in (res_full, res_low):
        if res[0] % patch or res[1] % patch:
            raise ValueError(f"resolution {res} not divisible by patch {patch}")
        if res[0] <= 0 or res[1] <= 0:
            raise ValueError(f"non-positive resolution: {res}")
    full_patches = (res_full[0] // patch) * (res_full[1] // patch)
    low_patches = (res_low[0] // patch) * (res_low[1] // patch)
    return full_patches / low_patches


def random_attention_input(
    rng: np.random.Generator, n: int, d_k: int, d_v: int
) -> AttentionInput:
    """Random instance on the factorizable domain: non-negative q and k."""
    return AttentionInput(
        q=np.abs(rng.standard_normal((n, d_k))),
        k=np.abs(rng.standard_normal((n, d_k))),
        v=rng.standard_normal((n, d_v)),
    )


@dataclass
class CheckReport:
    """Outcome of the equivalence/scaling suite; one line per check."""

    lines: list[str] = field(default_factory=list)
    passed: bool = True

    def record(self, ok: bool, name: str, detail: str) -> None:
        self.lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        self.passed = self.passed and ok


def run_attention_checks(
    n_values: list[int] = [8, 16, 32, 64],
    d: int = 16,
    trials: int = 100,
    tolerance: float = 1e-6,
    seed: int = 0,
    factored_fn=factored_linear_attention,
    naive_fn=naive_relu_attention,
) -> CheckReport:
    """Equivalence and multiply-count scaling suite over random instances."""
    report = CheckReport()
    rng = np.random.default_rng(seed)

    single = random_attention_input(rng, 1, d, d)
    out = factored_fn(single)
    report.record(
        bool(np.allclose(out, single.v, rtol=0, atol=1e-12)),
        "single-patch identity",
        "n=1 output equals v",
    )

    worst = 0.0
    for n in n_values:
        for _ in range(trials):
            inp = random_attention_input(rng, n, d, d)
            a = naive_fn(inp)
            b = factored_fn(inp)
            scale = np.max(np.abs(a)) + 1e-300
            worst = max(worst, float(np.max(np.abs(a - b)) / scale))
    report.record(
        worst <= tolerance,
        "kernel equivalence",
        f"max relative error {worst:.3e} over {trials} trials per n in {n_values}",
    )

    zq = np.zeros((3, d))
    zinp = AttentionInput(q=zq, k=np.abs(rng.standard_normal((3, d))),
                          v=rng.standard_normal((3, d)))
    zero_ok = bool(
        np.all(naive_fn(zinp) == 0.0) and np.all(factored_fn(zinp) == 0.0)
    )
    report.record(zero_ok, "zero-denominator rows", "both kernels emit zero rows")

    ratios = {}
    for fn, name in ((factored_fn, "factored"), (naive_fn, "naive")):
        counts = {}
        for n in (32, 64):
            counter = OpCounter()
            fn(random_attention_input(rng, n, d, d), counter)
            counts[n] = counter.multiplies
        ratios[name] = counts[64] / counts[32]
    report.record(
        1.9 <= ratios["factored"] <= 2.1,
        "factored scaling",
        f"multiply ratio n=64/n=32 is {ratios['factored']:.3f} (linear target 2.0)",
    )
    report.record(
        3.8 <= ratios["naive"] <= 4.2,
        "naive scaling",
        f"multiply ratio n=64/n=32 is {ratios['naive']:.3f} (quadratic target 4.0)",
    )
    return report
