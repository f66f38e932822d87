import builtins
import io
import math
import struct
import tracemalloc
from decimal import ROUND_FLOOR, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlamp._format
import nlamp._parse
import nlamp.wigner
from nlamp import (
    SUCCESS_OUTCOME,
    BoundaryMassError,
    FockState,
    GridMismatchError,
    GridSpec,
    SchemeConfig,
    WignerGrid,
    coherent_state,
    expect_a_grid,
    export_grid,
    fidelity_grid,
    fock_state,
    import_grid,
    inner_product,
    integrate,
    metrics,
    normalized,
    run_branch,
    wigner_coherent,
    wigner_fock,
    wigner_of_state,
)

# grid that contains every decaying-envelope random state used below
WIDE = GridSpec(-8.0, 8.0, -8.0, 8.0, 321, 321)


def random_contained_state(rng, dim):
    """Random state with an exponentially decaying photon-number envelope.

    Keeps the boundary mass on the test grids negligible; uniform random
    states of dim ~25 would spill past |x| = 6.
    """
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps *= 0.7 ** np.arange(dim)
    return normalized(FockState(amps))


class TestClosedFormGrids:
    def test_coherent_peak_value(self):
        grid = wigner_coherent(0.0)
        i = grid.spec.n_x // 2
        assert abs(grid.values[i, i] - 1.0 / math.pi) < 1e-12

    def test_coherent_peak_location(self):
        grid = wigner_coherent(0.5 + 0j)
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        x, p = grid.spec.axes()
        assert abs(x[i] - math.sqrt(2) * 0.5) < 0.06
        assert abs(p[j]) < 0.06

    def test_coherent_normalization(self):
        assert abs(integrate(wigner_coherent(0.5 + 0.2j)) - 1.0) < 1e-6

    def test_fock0_equals_vacuum_coherent(self):
        np.testing.assert_allclose(
            wigner_fock(0).values, wigner_coherent(0.0).values, atol=1e-14
        )

    def test_fock1_origin_depth(self):
        grid = wigner_fock(1)
        i = grid.spec.n_x // 2
        assert abs(grid.values[i, i] + 1.0 / math.pi) < 1e-12

    def test_fock1_zero_crossing_radius(self):
        # L_1(2 r^2) = 1 - 2 r^2 vanishes at r^2 = 1/2
        spec = GridSpec(-2, 2, -2, 2, 81, 81)
        grid = wigner_fock(1, spec)
        x, _ = spec.axes()
        j = spec.n_p // 2
        values_on_axis = grid.values[:, j]
        crossings = x[:-1][np.diff(np.sign(values_on_axis)) != 0]
        assert any(abs(abs(c) - math.sqrt(0.5)) < 0.06 for c in crossings)

    def test_wigner_lower_bound(self):
        for n in range(5):
            assert np.min(wigner_fock(n).values) >= -1.0 / math.pi - 1e-9


class TestGeneralState:
    def test_matches_coherent_closed_form(self):
        # complex amplitudes move the peak in p, which only the phase of psi carries
        for alpha, dim in ((0.5 + 0j, 30), (0.9 - 0.6j, 40), (2.0, 61), (3 + 1j, 100)):
            grid = wigner_of_state(coherent_state(alpha, dim))
            np.testing.assert_allclose(grid.values, wigner_coherent(alpha).values, atol=1e-8)

    def test_matches_fock_closed_form(self):
        # n = dim - 1 is the widest state a space holds
        for n, dim in ((1, 10), (0, 60), (7, 60), (59, 60), (100, 101)):
            grid = wigner_of_state(fock_state(n, dim))
            np.testing.assert_allclose(grid.values, wigner_fock(n).values, atol=1e-8)

    def test_superposition_normalization(self):
        rng = np.random.default_rng(21)
        state = random_contained_state(rng, 15)
        assert abs(integrate(wigner_of_state(state)) - 1.0) < 1e-6

    def test_parity_identity_at_origin(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            state = random_contained_state(rng, 18)
            grid = wigner_of_state(state)
            i, j = grid.spec.n_x // 2, grid.spec.n_p // 2
            parity = float(np.sum((-1.0) ** np.arange(state.dim) * np.abs(state.amps) ** 2))
            assert abs(math.pi * grid.values[i, j] - parity) < 1e-8

    def test_aliases_stay_beyond_the_reach(self):
        # the grid spans past reach = sqrt(203) + 8 = 22.2; with a step twice
        # as long, aliased copies of W would show wherever |p| > 8
        spec = GridSpec(-25, 25, -25, 25, 101, 101)
        grid = wigner_of_state(fock_state(100, 101), spec)
        np.testing.assert_allclose(grid.values, wigner_fock(100, spec).values, atol=1e-8)

    def test_wide_momentum_range(self):
        # every column beyond the quadrature's reach is zero, so neither
        # memory nor aliasing depends on how far the grid extends
        spec = GridSpec(-4, 4, -1e6, 1e6, 41, 20_001)
        grid = wigner_of_state(coherent_state(0.5j, 30), spec)
        np.testing.assert_allclose(grid.values, wigner_coherent(0.5j, spec).values, atol=1e-12)

    def test_beyond_gaussian_underflow(self):
        # psi sits near x = 39.6, where e^{-x^2/2} underflows to zero; the
        # recurrence carries the Gaussian as a separate scale
        alpha = 28.0
        centre = math.sqrt(2) * alpha
        spec = GridSpec(centre - 4, centre + 4, -4, 4, 9, 9)
        grid = wigner_of_state(coherent_state(alpha, 1100), spec)
        np.testing.assert_allclose(grid.values, wigner_coherent(alpha, spec).values, atol=1e-12)


def quadrature_points(dim, n_rows):
    """2 n_rows (J + 1): the points x_i ± y_j of the direct quadrature at h = h_max."""
    reach = math.sqrt(2 * dim + 1) + 8.0
    return 2 * n_rows * (math.ceil(reach / (math.pi / (2.0 * reach))) + 1)


class TestLattice:
    """psi evaluated once, on one lattice shared by the rows and the offsets y."""

    @pytest.fixture
    def node_counts(self, monkeypatch):
        counts = []
        wavefunction = nlamp.wigner._wavefunction

        def counted(amps, q):
            counts.append(q.size)
            return wavefunction(amps, q)

        monkeypatch.setattr(nlamp.wigner, "_wavefunction", counted)
        return counts

    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec(-1e-9, 1e-9, -2, 2, 1001, 5),
            GridSpec(0.3, 0.3, -3, 3, 1, 61),
            GridSpec(-4, 4, -4, 4, 3, 41),
            GridSpec(4, -4, -4, 4, 81, 41),
            GridSpec(0, 5e-324, -3, 3, 2, 41),
        ],
        ids=["sub-step", "one-row", "coarse", "x-descending", "denormal-step"],
    )
    def test_matches_coherent_closed_form(self, spec):
        alpha = 0.6 - 0.4j
        grid = wigner_of_state(coherent_state(alpha, 40), spec)
        np.testing.assert_allclose(grid.values, wigner_coherent(alpha, spec).values, atol=1e-12)

    def test_grid_beyond_reach_is_zero(self, node_counts):
        # reach = sqrt(61) + 8 = 15.8, so no row of this grid is within it
        spec = GridSpec(30, 40, -3, 3, 11, 11)
        grid = wigner_of_state(coherent_state(0.5, 30), spec)
        assert not grid.values.any()
        assert node_counts == []

    def test_dimension_near_max_dim(self):
        # dim 996 takes about 0.3 s; evaluated point by point it took 7 s
        grid = wigner_of_state(coherent_state(1.5 + 0.5j, 996))
        np.testing.assert_allclose(grid.values, wigner_coherent(1.5 + 0.5j).values, atol=1e-12)
        grid = wigner_of_state(fock_state(995, 996))
        np.testing.assert_allclose(grid.values, wigner_fock(995).values, atol=1e-8)

    @pytest.mark.parametrize(
        "spec",
        [GridSpec(-1e-9, 1e-9, -2, 2, 1001, 5), GridSpec(-12, 12, -4, 4, 4, 41)],
        ids=["sub-step", "coarse"],
    )
    def test_no_more_nodes_than_quadrature_points(self, spec, node_counts):
        # on these grids a lattice would need more nodes than the points x_i ± y_j
        wigner_of_state(coherent_state(0.5, 40), spec)
        assert len(node_counts) == 1
        assert node_counts[0] <= quadrature_points(40, spec.n_x)

    def test_bench_grid_shares_one_lattice(self, node_counts):
        spec = GridSpec(-8.0, 8.0, -8.0, 8.0, 321, 321)
        for dim in (30, 46):
            wigner_of_state(coherent_state(1.0, dim), spec)
        assert len(node_counts) == 2
        assert max(node_counts) < 4000 < quadrature_points(30, spec.n_x)


class TestFidelityGrid:
    def test_self_fidelity(self):
        grid = wigner_coherent(0.3 + 0j)
        assert abs(fidelity_grid(grid, grid) - 1.0) < 1e-6

    def test_coherent_overlap(self):
        f = fidelity_grid(wigner_coherent(0.5 + 0j), wigner_coherent(0.7 + 0j))
        assert abs(f - math.exp(-0.04)) < 1e-6

    def test_orthogonal_fock_states(self):
        assert abs(fidelity_grid(wigner_fock(0), wigner_fock(1))) < 1e-6

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            fidelity_grid(wigner_fock(0), wigner_fock(0, GridSpec(-5, 5, -5, 5, 101, 101)))


class TestExpectationFromGrid:
    def test_coherent(self):
        assert abs(expect_a_grid(wigner_coherent(0.5 + 0j)) - 0.5) < 1e-6

    def test_fock(self):
        assert abs(expect_a_grid(wigner_fock(1))) < 1e-6

    def test_boundary_guard(self):
        tight = GridSpec(-1.5, 1.5, -1.5, 1.5, 61, 61)
        with pytest.raises(BoundaryMassError):
            expect_a_grid(wigner_coherent(1.0 + 0j, tight))


class TestAxisOrientation:
    """Integrals do not depend on which way an axis runs."""

    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec(6, -6, -6, 6, 241, 241),
            GridSpec(-6, 6, 6, -6, 241, 241),
            GridSpec(6, -6, 6, -6, 241, 241),
        ],
        ids=["x-descending", "p-descending", "both-descending"],
    )
    def test_matches_the_ascending_grid(self, spec):
        ascending = GridSpec(-6, 6, -6, 6, 241, 241)
        results = []
        for grid_spec in (ascending, spec):
            half = wigner_coherent(0.5 + 0j, grid_spec)
            other = wigner_coherent(0.3 - 0.4j, grid_spec)
            results.append((integrate(half), fidelity_grid(half, other), expect_a_grid(other)))
        (norm, overlap, mean_a), (norm_d, overlap_d, mean_a_d) = results
        assert abs(norm - 1.0) < 1e-6
        assert abs(norm_d - norm) < 1e-12
        assert abs(overlap_d - overlap) < 1e-12
        assert abs(mean_a_d - mean_a) < 1e-12
        assert abs(mean_a - (0.3 - 0.4j)) < 1e-6


class TestDualOracle:
    def test_fidelity_and_expectation_agree_with_fock_basis(self):
        rng = np.random.default_rng(12345)
        for _ in range(10):
            a = random_contained_state(rng, 20)
            b = random_contained_state(rng, 20)
            wa = wigner_of_state(a, WIDE)
            wb = wigner_of_state(b, WIDE)
            assert abs(fidelity_grid(wa, wb) - abs(inner_product(a, b)) ** 2) < 1e-5
            assert abs(expect_a_grid(wa) - metrics(a).mean_a) < 1e-5


# rows after a 3×3 header that import_grid must reject
MALFORMED_ROWS = pytest.mark.parametrize(
    "rows",
    [
        ["0,0,0.1"],
        ["0,0,0.1"] * 10,
        ["0,0,0.1"] * 8 + ["0,0,w"],
    ],
    ids=["missing-rows", "extra-row", "not-a-number"],
)


class TestCsvRoundTrip:
    def test_small_grid_round_trip(self):
        spec = GridSpec(-1, 1, -1, 1, 3, 3)
        grid = wigner_coherent(0.2 + 0j, spec)
        buffer = io.StringIO()
        export_grid(grid, buffer)
        buffer.seek(0)
        loaded = import_grid(buffer)
        assert loaded.spec == spec
        np.testing.assert_array_equal(loaded.values, grid.values)

    def test_header_carries_geometry(self):
        spec = GridSpec(-2, 2, -3, 3, 3, 4)
        buffer = io.StringIO()
        export_grid(wigner_coherent(0.0, spec), buffer)
        header = buffer.getvalue().splitlines()[0]
        assert header == "-2,2,-3,3,3,4"

    def test_exported_bytes(self):
        buffer = io.StringIO()
        export_grid(wigner_fock(1, GridSpec(-0.25, 0.1, -1, 1, 2, 3)), buffer)
        assert buffer.getvalue() == (
            "-0.25,0.10000000000000001,-1,1,2,3\n"
            "-0.25,-1,0.12375557225881574\n"
            "-0.25,0,-0.26164640696575825\n"
            "-0.25,1,0.12375557225881574\n"
            "0.10000000000000001,-1,0.11825319197205574\n"
            "0.10000000000000001,0,-0.30883979689903895\n"
            "0.10000000000000001,1,0.11825319197205574\n"
        )

    @MALFORMED_ROWS
    def test_malformed_file_is_rejected(self, rows):
        with pytest.raises(ValueError):
            import_grid(io.StringIO("\n".join(["-1,1,-1,1,3,3"] + rows) + "\n"))

    @MALFORMED_ROWS
    def test_malformed_file_is_rejected_from_a_path(self, rows, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("\n".join(["-1,1,-1,1,3,3"] + rows) + "\n")
        with pytest.raises(ValueError):
            import_grid(path)

    def test_path_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(23)
        grid = wigner_of_state(random_contained_state(rng, 40), WIDE)
        path = tmp_path / "grid.csv"
        export_grid(grid, path)
        loaded = import_grid(path)
        assert loaded.spec == grid.spec
        np.testing.assert_array_equal(loaded.values, grid.values)
        with open(path, newline="") as fh:
            np.testing.assert_array_equal(import_grid(fh).values, grid.values)

    def test_rows_format_like_each_value_alone(self):
        # one %-format call per row writes what formatting each value would
        spec = GridSpec(-1, 0.3, -2, 1e-7, 2, 4)
        values = [[-0.0, 5e-324, 1 / 3, -2.5e-300], [1e300, 0.1, -7.0, math.pi]]
        buffer = io.StringIO()
        export_grid(WignerGrid(spec, np.array(values)), buffer)
        x, p = spec.axes()
        expected = [
            f"{xi:.17g},{pj:.17g},{w:.17g}" for xi, row in zip(x, values) for pj, w in zip(p, row)
        ]
        assert buffer.getvalue().splitlines()[1:] == expected

    def test_reimported_grid_integrates_to_one(self, tmp_path):
        path = tmp_path / "grid.csv"
        export_grid(wigner_coherent(0.5 + 0j), path)
        assert abs(integrate(import_grid(path)) - 1.0) < 1e-6


def formatted(values):
    """The text `format_17g` lays out for each value: its record, NULs dropped."""
    records = nlamp._format.format_17g(np.asarray(values, dtype=float))
    return records.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def bit_pattern(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def neighbours(v):
    return [np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf)]


# values at every layout switch and at the edges of the fast path
EDGE_VALUES = [
    0.0,
    -0.0,
    5e-324,
    2.2250738585072014e-308,
    *neighbours(nlamp._format.FAST_MIN),
    *neighbours(nlamp._format.FAST_MAX),
    *[w for k in range(-323, 309) for w in neighbours(float(f"1e{k}"))],
    0.0001,
    9.9999999999999991e-05,
    0.99999999999999994,
    131073 / 262144,
    1 / math.pi,
    1e300,
]


class TestFormatter:
    """`export_grid` writes each W value as exactly what '%.17g' makes of it."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(0, 2**64 - 1).map(bit_pattern),
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            ),
            max_size=300,
        )
    )
    def test_matches_percent_format(self, values):
        assert formatted(values) == ["%.17g" % v for v in values]

    def test_edge_values(self):
        values = EDGE_VALUES + [-v for v in EDGE_VALUES]
        assert formatted(values) == ["%.17g" % v for v in values]

    def test_rounding_at_the_seventeenth_digit(self):
        # the largest double below 1, a tie that rounds to even, and the
        # switch from positional to exponential notation below 1e-4
        values = [0.99999999999999994, 131073 / 262144, 0.0001, 9.9999999999999991e-05]
        assert formatted(values) == [
            "0.99999999999999989",
            "0.50000381469726562",
            "0.0001",
            "9.9999999999999991e-05",
        ]

    def test_edge_values_round_trip(self, tmp_path):
        values = np.array([EDGE_VALUES, [-v for v in EDGE_VALUES]])
        grid = WignerGrid(GridSpec(-1, 1, -1, 1, *values.shape), values)
        path = tmp_path / "edges.csv"
        export_grid(grid, path)
        loaded = import_grid(path).values
        np.testing.assert_array_equal(loaded.view(np.uint64), values.view(np.uint64))

    def test_export_memory_stays_at_one_block(self):
        # 40 rows of 1 001 columns span ten blocks; as one block the export
        # peaked at about 10 MB, in blocks at about 1.1 MB
        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)

        rng = np.random.default_rng(24)
        values = rng.normal(size=(40, 1001)) * 10.0 ** rng.integers(-40, 1, (40, 1001))
        grid = WignerGrid(GridSpec(-8, 8, -8, 8, 40, 1001), values)
        sink = Sink()
        tracemalloc.start()
        try:
            export_grid(grid, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.size > 40 * 1001 * 20
        assert peak < 4 * 2**20


# every layout of '%.17g': zeros, subnormals, NaN and infinities, two- and
# three-digit exponents, "0." and zero to three zeros ahead of the digits,
# and the point after digit X = 0 ... 16, with and without a fraction
LAYOUT_VALUES = [
    0.0, 5e-324, 2.2250738585072009e-308, math.nan, math.inf,
    1.5e-05, 9.9999999999999991e-05, 3e17, 1.2345678901234567e-99, 1e99,
    1e-100, 2.5e200, 1.2345678901234567e-290, 7e289,
    *[d / 10.0**k for k in range(4) for d in (0.5, 1 / 3, 0.1234)],
    *[m * 10.0**k for k in range(17) for m in (1.0, 1.5, 1.2345678901234567)],
    12.5, 1000000000000000.5, 9.9999999999999984e16,
]


def percent_lines(grid):
    """Each line of the grid's CSV body as per-value formatting writes it."""
    x, p = grid.spec.axes()
    pairs = ((xi, pj, w) for xi, row in zip(x, grid.values) for pj, w in zip(p, row))
    return [f"{xi:.17g},{pj:.17g},{w:.17g}" for xi, pj, w in pairs]


def layout_grids():
    """Grids of n_p above the block size, of n_p not dividing it, and of one value."""
    block = nlamp.wigner._BLOCK
    rng = np.random.default_rng(26)
    grids = []
    for spec in (GridSpec(-1e-7, 3e5, -2, 1e-3, 2, block + 5), GridSpec(6, -6, -8, 8, 11, 1000)):
        size = spec.n_x * spec.n_p
        values = rng.normal(size=size) * 10.0 ** rng.integers(-320, 300, size)
        values[: 2 * len(LAYOUT_VALUES)] = LAYOUT_VALUES + [-v for v in LAYOUT_VALUES]
        grids.append(WignerGrid(spec, values.reshape(spec.n_x, spec.n_p)))
    grids.append(WignerGrid(GridSpec(0.5, 0.5, -1, -1, 1, 1), np.array([[-1.2345678901234567e-5]])))
    return grids


def near_tie(v):
    """Whether the exact digits of v beyond its seventeenth lie within 2e-9 of one half."""
    d = Decimal(v)
    scaled = d.scaleb(16 - d.adjusted())
    return abs(scaled - scaled.to_integral_value(ROUND_FLOOR) - Decimal("0.5")) <= Decimal("2e-9")


class TestExport:
    """`export_grid` writes the lines '%.17g' writes, in blocks of whole rows."""

    def test_lines_match_percent_format(self, tmp_path):
        for grid in layout_grids():
            path = tmp_path / "grid.csv"
            export_grid(grid, path)
            assert path.read_text().splitlines()[1:] == percent_lines(grid)

    def test_path_and_text_handle_get_the_same_bytes(self, tmp_path):
        for grid in layout_grids():
            path = tmp_path / "grid.csv"
            export_grid(grid, path)
            buffer = io.StringIO()
            export_grid(grid, buffer)
            assert path.read_bytes() == buffer.getvalue().encode("ascii")

    def test_bench_and_positional_grids_need_no_percent_format(self, tmp_path, monkeypatch):
        calls = []
        fallback = nlamp._format._fallback

        def spy(values):
            calls.extend(values.tolist())
            return fallback(values)

        monkeypatch.setattr(nlamp._format, "_fallback", spy)
        state = run_branch(SchemeConfig.symmetric(0.9 + 0j, 0.3), SUCCESS_OUTCOME).output
        bench = wigner_of_state(state, WIDE)
        # 1 <= |v| < 1e17: round numbers and random mantissas, less those
        # whose digits beyond the seventeenth lie near one half, where
        # '%.17g' may round a tie (above 1e14 a double has few fraction
        # bits, and many are exact ties)
        rng = np.random.default_rng(27)
        randoms = (1.0 + rng.random(8000)) * 10.0 ** rng.integers(0, 17, 8000)
        randoms = [v for v in randoms.tolist() if not near_tie(v)][:3949]
        values = [m * 10.0**k for k in range(17) for m in (1.0, 3.0, 1.5)] + randoms
        signs = rng.choice([-1.0, 1.0], 4000)
        positional = WignerGrid(GridSpec(-8, 8, -8, 8, 40, 100), (signs * values).reshape(40, 100))
        path = tmp_path / "grid.csv"
        for grid in (bench, positional):
            export_grid(grid, path)
            assert path.read_text().splitlines()[1:] == percent_lines(grid)
        assert calls == []
        # the spy sees the values that do go to '%.17g': NaN and a tie
        tie = 1234567890123456.25
        values = np.array([[math.nan, 0.25, tie]])
        export_grid(WignerGrid(GridSpec(-1, 1, -1, 1, 1, 3), values), path)
        assert len(calls) == 2 and math.isnan(calls[0]) and calls[1] == tie
        lines = ["-1,-1,nan", "-1,0,0.25", "-1,1,1234567890123456.2"]
        assert path.read_text().splitlines()[1:] == lines


def assert_same_values(got, want):
    """Bit-identical values, NaN compared by isnan."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def read_back(values, directory):
    """values as one grid row, exported and read back from a path and from a handle."""
    values = np.array(values, dtype=float)
    grid = WignerGrid(GridSpec(-1, 1, -1, 1, 1, values.size), values[None])
    path = directory / "row.csv"
    export_grid(grid, path)
    buffer = io.StringIO()
    export_grid(grid, buffer)
    buffer.seek(0)
    return import_grid(path).values[0], import_grid(buffer).values[0]


def field(sign, digits, exponent):
    """The W field [-]d.ddd…e±XX of a digit string and its decimal exponent."""
    return f"{sign}{digits[0]}.{digits[1:]}e{'-' if exponent < 0 else '+'}{abs(exponent):02d}"


def around_midpoint(v):
    """The 17-digit fields just below and just above the midpoint of v and its upper neighbour."""
    with localcontext() as context:
        context.prec = 1100
        mid = (Decimal(v) + Decimal(float(np.nextafter(v, math.inf)))) / 2
        unit = Decimal(10) ** (mid.adjusted() - 16)
        below = mid.quantize(unit, rounding=ROUND_FLOOR)
        fields = []
        for d in (below, below + unit):
            digits, exponent = str(d.scaleb(-d.adjusted() + 16).to_integral_exact()), d.adjusted()
            fields.append(field("", digits, exponent))
    return fields


# lines after a 1 x 2 header that are not in export layout, each read by np.loadtxt
FALLBACK_BODIES = pytest.mark.parametrize(
    "body",
    [
        "0,0,0.5\r\n0,1,0.25\r\n",
        "0,0,0.5\n\n0,1,0.25\n",
        "0,0, 0.5 \n0,1,0.25\n",
        "0,0,0.5,7\n0,1,0.25,8\n",
        "0,0,+1\n0,1,0.25\n",
        "0,0,.5\n0,1,0.25\n",
        "0,0,1E5\n0,1,0.25\n",
        "0,0,nan\n0,1,0.25\n",
        "0,0,-inf\n0,1,0.25\n",
        "0,0,0.5\n0,1,0.25",
        "0,0,5.\n0,1,0.25\n",
        "0,0,1e5\n0,1,0.25\n",
        "0,0\u00e9,0.5\n0,1,0.25\n",
    ],
    ids=["crlf", "blank-line", "spaces", "fourth-column", "plus", "leading-point", "capital-e",
         "nan", "minus-inf", "no-final-newline", "trailing-point", "unsigned-exponent", "non-ascii"],
)


class TestReader:
    """`import_grid` returns exactly what np.loadtxt makes of the W column."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(0, 2**64 - 1).map(bit_pattern),
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_round_trip_is_bit_identical(self, tmp_path_factory, values):
        for loaded in read_back(values, tmp_path_factory.mktemp("row")):
            assert_same_values(loaded, values)

    def test_edge_values_round_trip(self, tmp_path):
        values = EDGE_VALUES + [-v for v in EDGE_VALUES]
        for loaded in read_back(values, tmp_path):
            assert_same_values(loaded, values)

    def test_fields_around_midpoints_and_at_the_table_ends(self, tmp_path):
        rng = np.random.default_rng(25)
        anchors = [1 / 3, 0.1, 1e-5, 9.9999999999999991e-05, 0.31830988618379069]
        anchors += list(rng.normal(size=40) * 10.0 ** rng.integers(-60, 1, 40))
        fields = [f for v in anchors for f in around_midpoint(abs(float(v)))]
        # ties, above and below a power of two, and exponents at both ends
        # of the table, and beyond the largest float
        fields += ["9007199254740993", "9007199254740995", "9007199254740991.5"]
        for exponent in (-259, -260, 288, 289):
            fields += [field("", "12345678901234567", exponent), field("-", "98765432109876543", exponent)]
        fields += ["99999999999999999e+291", "-99999999999999999e+292"]
        text = "-1,1,-1,1,1,%d\n" % len(fields) + "".join(f"0,0,{f}\n" for f in fields)
        path = tmp_path / "fields.csv"
        path.write_text(text)
        assert_same_values(import_grid(path).values[0], [float(f) for f in fields])

    def test_bench_grid_needs_neither_loadtxt_nor_float(self, tmp_path, monkeypatch):
        state = run_branch(SchemeConfig.symmetric(0.9 + 0j, 0.3), SUCCESS_OUTCOME).output
        grid = wigner_of_state(state, WIDE)
        path = tmp_path / "grid.csv"
        export_grid(grid, path)
        calls = []

        def spy_float(text):
            calls.append(text)
            return builtins.float(text)

        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: calls.append("loadtxt"))
        monkeypatch.setattr(nlamp._parse, "float", spy_float, raising=False)
        np.testing.assert_array_equal(import_grid(path).values, grid.values)
        assert calls == []
        # the spy sees the fields that do go to float(): NaN and ties, here
        # above and below 2^53
        fields = ["nan", "0.25", "9007199254740993", "9007199254740991.5"]
        path.write_text("-1,1,-1,1,1,4\n" + "".join(f"0,0,{f}\n" for f in fields))
        assert_same_values(import_grid(path).values[0], [float(f) for f in fields])
        assert calls == [b"nan", b"9007199254740993", b"9007199254740991.5"]

    @FALLBACK_BODIES
    def test_other_files_read_as_loadtxt_reads_them(self, body, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_bytes(b"-1,1,-1,1,1,2\n" + body.encode())
        want = np.loadtxt(path, delimiter=",", usecols=2, ndmin=1, skiprows=1)
        assert_same_values(import_grid(path).values[0], want)

    @pytest.mark.parametrize(
        "text",
        [b"-1,1,-1,1,1,2\r0,0,0.5\r0,1,0.25\r", b"-1,1,-1,1,1,2\r\n0,0,0.5\n0,1,0.25\n"],
        ids=["cr-only", "crlf-header"],
    )
    def test_header_line_end_is_read_as_before(self, text, tmp_path):
        # the header is read in text mode, which ends a line at a lone '\r'
        path = tmp_path / "grid.csv"
        path.write_bytes(text)
        assert_same_values(import_grid(path).values[0], [0.5, 0.25])

    @pytest.mark.parametrize("w",["1_0", "0x10", "", "1.2.3"], ids=["underscore", "hex", "empty", "two-points"])
    def test_malformed_w_is_rejected(self, w, tmp_path):
        text = f"-1,1,-1,1,1,2\n0,0,{w}\n0,1,0.25\n"
        path = tmp_path / "grid.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            import_grid(path)

    def test_invalid_utf8_is_rejected(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_bytes(b"-1,1,-1,1,1,2\n0,0\xff,0.5\n0,1,0.25\n")
        with pytest.raises(ValueError):
            import_grid(path)

    def test_header_claiming_a_huge_grid_is_rejected(self, tmp_path):
        # 10^10 cells: the reader leaves such a grid to np.loadtxt rather
        # than allocate it up front
        path = tmp_path / "grid.csv"
        path.write_text("-1,1,-1,1,100000,100000\n0,0,0.5\n0,1,0.25\n")
        with pytest.raises(ValueError):
            import_grid(path)

    def test_header_spanning_more_than_the_largest_float_is_rejected(self):
        with pytest.raises(ValueError):
            import_grid(io.StringIO("1e308,-1e308,-1,1,1,1\n0,0,0.5\n"))

    def test_import_memory_stays_near_one_chunk(self, tmp_path):
        # 40 rows of 1 001 columns span about ten chunks; read as one chunk
        # the grid peaked at about 27 MB, in chunks at about 2.1 MB, of which
        # 0.3 MB is the grid itself (np.loadtxt: 0.5 MB)
        rng = np.random.default_rng(24)
        values = rng.normal(size=(40, 1001)) * 10.0 ** rng.integers(-40, 1, (40, 1001))
        path = tmp_path / "grid.csv"
        export_grid(WignerGrid(GridSpec(-8, 8, -8, 8, 40, 1001), values), path)
        import_grid(path)
        tracemalloc.start()
        try:
            loaded = import_grid(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.values, values)
        assert peak < 4 * 2**20
