"""``cli._write_csv`` float blocks against the ``%.17g`` row writer, byte for byte.

The block writer formats many values at once with a vectorized kernel
(``cli._csv_floats``); every byte must be the one ``b"%.17g" % x`` gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import reference_write_csv
from passiflow import cli

# Doubles whose 17-digit scaling lies within 1e-16 of a half unit, where the
# power of ten is inexact: the kernel cannot round them, its guard sends them
# to ``%``.  Found by a lattice search over each binary exponent.
NEAR_TIES = [float.fromhex(h) for h in (
    "0x1.c1170d4fda118p-996", "0x1.0fb78fc1d5f3fp-996", "0x1.f0431669c2fcbp-995",
    "0x1.0a75f770bc557p-829", "0x1.7d3ce71c22b6bp-830", "0x1.a224ff361249ap-829",
    "0x1.afc8a494604c7p-665", "0x1.a6ef420464b5fp-662", "0x1.9e15df74691f7p-663",
    "0x1.dc69fd14b4ed9p-498", "0x1.33dd4de102f18p-498", "0x1.427b56243374dp-497",
    "0x1.59a2783ce70abp-330", "0x1.90ed3c96a7a90p-330", "0x1.2257b3e3266c6p-330",
    "0x1.fbef552e2bb3fp-197", "0x1.35f36130f432ap-197", "0x1.a5eace64b0e3fp-198",
    "0x1.3b7b44d9b4870p-97", "0x1.e74123910300ep-99", "0x1.1f6acc44cc1a4p-99",
    "0x1.9b0151fb9413ep-66", "0x1.0a631df084543p-64", "0x1.f355e9f92aaa8p-67",
    "0x1.54190211598dbp+202", "0x1.533bb16be2334p+202", "0x1.54f652b6d0e82p+202",
    "0x1.efbe73470b5b1p+334", "0x1.146b595b11c38p+333", "0x1.b6a633d7f32f2p+333",
    "0x1.3fdea17697030p+499", "0x1.5c328473e0d23p+498", "0x1.c37a0f3498b55p+500",
    "0x1.86cde39770ba3p+667", "0x1.64c87a9adac72p+667", "0x1.42c3119e44d41p+667",
    "0x1.1edbb48a08d59p+831", "0x1.54ed70d2b788ap+832", "0x1.d193f082b4450p+831",
    "0x1.46fe7cce7292bp+998", "0x1.5f51efb2373a0p+998", "0x1.2eab09eaadeb6p+998",
)]


def _edges() -> np.ndarray:
    bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF4000000000123, 0x7FFFFFFFFFFFFFFF], np.uint64)
    values = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf,
              *bits.view(np.float64), 0.1, 1 / 3, 2 / 3, 0.5, 1.0, 9.5, 123456789.0,
              *NEAR_TIES]
    for X in range(-323, 309):                  # every power of ten and its neighbours
        p = float(f"1e{X}")
        values += [p, np.nextafter(p, 0), np.nextafter(p, np.inf)]
    for p in (1e-5, 1e-4, 1e16, 1e17):          # where %g switches notation
        values += [p - p * 1e-16, p * (1 - 5e-17), p * (1 + 5e-17),
                   *np.nextafter(p, [0, np.inf]), 0.5 * p, 0.99999999999999995 * p]
    # exact ties at the 17th digit: m/4 in [1e15, 2.25e15) with m odd, whose
    # power of ten (10) is exact, and m 2^-24, m 2^-25, whose powers
    # (10^23, 10^24) are not
    m = np.random.default_rng(0).integers(2 * 10 ** 15, 45 * 10 ** 14, 400) * 2 + 1
    values += list(m / 4) + [1e15 + 0.25, 1e15 + 0.75, 2.25e15 - 0.25]
    values += [k * 2.0 ** -24 for k in range(3, 17, 2)] + [2.0 ** -25, 3 * 2.0 ** -25]
    values = np.array(values, dtype=float)
    return np.concatenate([values, -values])


EDGES = _edges()


def _bytes_of(dirpath, blocks, width):
    """The block writer's and the row reference's bytes of ``blocks``."""
    header = [f"c{k}" for k in range(width)]
    with np.errstate(all="raise"):          # the kernel computes no inf or nan
        cli._write_csv(dirpath / "a.csv", header, blocks=blocks)
    rows = [row for block in blocks for row in np.column_stack(block).tolist()]
    reference_write_csv(dirpath / "b.csv", header, iter(rows))
    return (dirpath / "a.csv").read_bytes(), (dirpath / "b.csv").read_bytes()


@pytest.mark.parametrize("shape", [(-1, 1), (1, -1), (-1, 3), (-1, 7), (-1, 405)])
def test_edge_values_are_written_as_percent_g(tmp_path, shape):
    values = EDGES[: EDGES.size // abs(shape[1]) * abs(shape[1])] if shape[0] < 0 else EDGES
    a = values.reshape(shape)
    got, want = _bytes_of(tmp_path, [(a,)], a.shape[1])
    assert got == want


@pytest.mark.parametrize("rows, cols", [
    (1, 1), (1, 5), (5, 1), (1, cli._SMALL), (cli._SMALL, 1),        # the row path and its edge
    (1, cli._CHUNK), (1, cli._CHUNK + 1), (cli._CHUNK + 1, 1),       # one row over the budget
    (cli._CHUNK // 7 + 1, 7), (3 * cli._CHUNK // 405 + 2, 405),       # uneven chunks
])
def test_blocks_straddling_the_chunk_budget(tmp_path, rows, cols):
    rng = np.random.default_rng([rows, cols])
    with np.errstate(over="ignore", invalid="ignore"):     # inf and signalling nan
        a = rng.choice(EDGES, size=(rows, cols)) * rng.choice([1.0, 1e-3, 1e7], size=(rows, cols))
    got, want = _bytes_of(tmp_path, [(a[:, :1], a[:, 1:])] if cols > 1 else [(a[:, 0],)], cols)
    assert got == want


def test_several_blocks_of_mixed_columns(tmp_path):
    rng = np.random.default_rng(7)
    blocks = [(rng.normal(size=n), rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-30, 30, (n, 3)),
               np.zeros(n)) for n in (16, 16, 3, 500)]
    got, want = _bytes_of(tmp_path, blocks, 5)
    assert got == want


def test_random_arrays_of_bit_patterns_are_written_as_percent_g(tmp_path):
    bits = np.random.default_rng(2).integers(0, 2 ** 64, size=(2 ** 18 // 64, 64),
                                             dtype=np.uint64, endpoint=False)
    a = bits.view(np.float64)
    got, want = _bytes_of(tmp_path, [(a,)], a.shape[1])
    assert got == want


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.uint64, st.tuples(st.integers(1, 60), st.sampled_from([1, 4, 9, 64])),
                  elements=st.integers(0, 2 ** 64 - 1)))
def test_random_bit_patterns_are_written_as_percent_g(tmp_path_factory, bits):
    a = bits.view(np.float64)
    got, want = _bytes_of(tmp_path_factory.mktemp("bits"), [(a,)], a.shape[1])
    assert got == want
