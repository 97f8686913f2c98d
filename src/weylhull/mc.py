"""Shared Monte Carlo plumbing: stream-keyed RNG and estimate containers.

Sampling is split into fixed-size chunks, each driven by a Philox generator
keyed on (seed, stream index).  Chunk tallies combine by addition, so the
result depends only on the master seed and the sample count, never on how
many workers processed the chunks.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: samples per RNG stream; fixed so results are reproducible across runs
CHUNK = 1 << 14

#: default master seed for bare invocations
DEFAULT_SEED = 20200408


def check_seed(seed: int) -> int:
    """The seed itself; ValueError outside [0, 2**64), where two seeds would
    share one Philox key and so one stream."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one chunk of work."""
    return np.random.Generator(np.random.Philox(key=check_seed(seed) * 2**64 + stream))


def resolve_threads(threads: int | None) -> int:
    if threads is not None:
        return max(1, threads)
    env = os.environ.get("WEYLHULL_THREADS")
    if env:
        return max(1, int(env))
    return 1


@dataclass(frozen=True)
class MCEstimate:
    """A Bernoulli-proportion estimate with its sampling uncertainty."""

    estimate: float
    stderr: float
    samples: int
    seed: int
    ambiguous_fraction: float = 0.0

    def ci(self, z: float = 1.96) -> tuple[float, float]:
        return self.estimate - z * self.stderr, self.estimate + z * self.stderr

    def z_score(self, reference: float) -> float:
        if self.stderr == 0:
            return 0.0 if self.estimate == reference else float("inf")
        return (self.estimate - reference) / self.stderr


def run_chunks(
    samples: int,
    seed: int,
    chunk_fn: Callable[[np.random.Generator, int], object],
    threads: int | None = None,
) -> list:
    """chunk_fn(rng, size) for each fixed-size chunk, in stream order."""
    sizes = [CHUNK] * (samples // CHUNK)
    if samples % CHUNK:
        sizes.append(samples % CHUNK)
    nworkers = resolve_threads(threads)

    def work(args):
        stream, size = args
        return chunk_fn(stream_rng(seed, stream), size)

    jobs = list(enumerate(sizes))
    if nworkers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            return list(pool.map(work, jobs))
    return [work(j) for j in jobs]


def run_bernoulli_chunks(
    samples: int,
    seed: int,
    chunk_fn: Callable[[np.random.Generator, int], tuple[int, int]],
    threads: int | None = None,
    scale: float = 1.0,
) -> MCEstimate:
    """Accumulate (hits, ambiguous) tallies over stream-keyed chunks.

    chunk_fn(rng, size) returns the tallies for one chunk.  The estimate is
    scale * hits/samples, with the binomial standard error scaled the same
    way.
    """
    tallies = run_chunks(samples, seed, chunk_fn, threads)
    hits = sum(t[0] for t in tallies)
    ambiguous = sum(t[1] for t in tallies)
    p = hits / samples
    stderr = scale * float(np.sqrt(p * (1.0 - p) / samples))
    return MCEstimate(scale * p, stderr, samples, seed, ambiguous / samples)
