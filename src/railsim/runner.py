"""Deterministic trial seeding and chunked parallel execution.

Every trial draws from its own generator seeded by (master_seed,
trial_index), so results never depend on how trials are distributed
over workers.  Work is split into fixed-size chunks of trial indices,
and ``map_chunks`` hands each chunk's result to one consumer in chunk
order as it arrives, so a caller can write and reduce a chunk and drop
it before the next.  The worker count comes from the RAILSIM_THREADS
environment variable (default 1) and must never affect output values.
"""

from __future__ import annotations

import os

import numpy as np

THREADS_ENV = "RAILSIM_THREADS"
DEFAULT_CHUNK = 1024


def worker_count(explicit: int | None = None) -> int:
    """Resolve the worker count: explicit argument, else env, else 1."""
    if explicit is None:
        raw = os.environ.get(THREADS_ENV, "1")
        try:
            explicit = int(raw)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if explicit < 1:
        raise ValueError(f"worker count must be >= 1, got {explicit}")
    return explicit


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent generator for one trial."""
    if master_seed < 0 or trial_index < 0:
        raise ValueError("seed and trial index must be non-negative")
    return np.random.default_rng(np.random.SeedSequence([master_seed, trial_index]))


def _later_states(master_seed: int, start: int, stop: int):
    """Yield the PCG64 state of ``trial_rng(master_seed, i)`` for each i in
    range(start + 1, stop).

    Below 2**32, seed and index are one entropy word each: SeedSequence's
    hash of [master_seed, i] (NumPy NEP 19) runs on uint32 arrays for the
    whole range, then PCG64's seeding (O'Neill 2014) on Python ints.
    Larger values fall back to ``trial_rng`` per trial.
    """
    if master_seed >= 2**32 or stop > 2**32:
        for i in range(start + 1, stop):
            yield trial_rng(master_seed, i).bit_generator.state
        return
    hash_const = 0x43B0D7E5

    def hashmix(value, mult):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & 0xFFFFFFFF
        value *= hash_const
        return value ^ value >> 16

    n = stop - start - 1
    zero = np.zeros(n, np.uint32)
    pool = [hashmix(word, 0x931E8875) for word in (
        np.full(n, master_seed, np.uint32),
        np.arange(start + 1, stop, dtype=np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (pool[dst] * 0xCA01F9DD
                         - hashmix(pool[src], 0x931E8875) * 0x4973F715)
                pool[dst] = mixed ^ mixed >> 16
    hash_const = 0x8B51F9DD
    words = np.stack([hashmix(pool[k % 4], 0x58F38DED) for k in range(8)], axis=1)
    mask = (1 << 128) - 1
    for row in words.astype("<u4", copy=False).view("<u8"):
        s_hi, s_lo, i_hi, i_lo = row.tolist()
        inc = (i_hi << 65 | i_lo << 1 | 1) & mask
        state = ((s_hi << 64 | s_lo) + inc) * 0x2360ED051FC65DA44385DF649FCCF645
        yield {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
               "state": {"state": state + inc & mask, "inc": inc}}


def trial_rngs(master_seed: int, start: int, stop: int):
    """Yield a generator in the state of ``trial_rng(master_seed, i)`` for
    each i in range(start, stop).  It is one generator, ``trial_rng``'s for
    the first trial, reseeded for each later one, so a consumer must be
    done with it before it takes the next; ``lane_rngs`` gives generators
    that may be held together.
    """
    if stop <= start:
        return
    rng = trial_rng(master_seed, start)
    yield rng
    for state in _later_states(master_seed, start, stop):
        rng.bit_generator.state = state
        yield rng


_LANE_POOL = []  # this process's lane generators, reseeded by lane_rngs


def lane_rngs(master_seed: int, start: int, stop: int) -> list:
    """Distinct generators in the states of ``trial_rng(master_seed, i)``
    for i in range(start, stop), to be held and drawn from in any order, as
    the dyne ensemble's lanes are.  All but the first come from a
    per-process pool, so they are valid only until the next call.
    """
    if stop <= start:
        return []
    _LANE_POOL.extend(np.random.Generator(np.random.PCG64(0))
                      for _ in range(stop - start - 1 - len(_LANE_POOL)))
    lanes = [trial_rng(master_seed, start)]
    for rng, state in zip(_LANE_POOL, _later_states(master_seed, start, stop)):
        rng.bit_generator.state = state
        lanes.append(rng)
    return lanes


def chunk_ranges(n: int, chunk_size: int = DEFAULT_CHUNK) -> list:
    """Split range(n) into fixed [start, stop) chunks.

    The chunk layout depends only on n and chunk_size, never on the
    worker count, so reductions over chunks are reproducible.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [(s, min(s + chunk_size, n)) for s in range(0, n, chunk_size)]


def map_chunks(fn, ranges, consume, threads: int | None = None) -> None:
    """Hand ``fn`` of each (start, stop) range to ``consume``, in chunk
    order, as each result arrives; return once the last is consumed.

    ``fn`` must be picklable (module-level function or partial of one)
    when more than one worker is used.  ``consume`` runs in this process.
    """
    threads = worker_count(threads)
    if threads == 1 or len(ranges) <= 1:
        for bounds in ranges:
            consume(fn(bounds))
        return
    import multiprocessing  # here: only a pooled run pays for the import
    # Fork keeps startup cheap and inherits loaded modules; Pool.imap
    # yields results in input order as they complete.
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=min(threads, len(ranges))) as pool:
        for part in pool.imap(fn, ranges):
            consume(part)
