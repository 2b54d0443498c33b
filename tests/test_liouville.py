"""Per-velocity steady state and linear probe response.

The closed forms of ``lcq.liouville`` are checked against the 16x16 oracle
of ``lcq.reference``.  The time-evolution oracle at the bottom is the primary
defense against sign and convention errors: it propagates the full master
equation (probes included at small finite amplitude) with an independent
matrix-exponential integrator and compares against the zeroth-order plus
linear-response prediction.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lcq import liouville as lv
from lcq import reference as ref
from lcq.scheme import RAD_PER_MHZ, FieldConfig, RelaxationSet, na2_preset


@pytest.fixture(scope="module")
def preset():
    return na2_preset()


def closed_detunings(om1, om3, om4):
    """(om1p, om2p, om4p) under the four-photon closure."""
    return om1, om1 + om3 - om4, om4


def detuned(fields, sch, v):
    """The four detunings (omega1p, omega2p, omega3p, omega4p) seen at velocity v."""
    omegas = (fields.omega1, fields.omega2, fields.omega3, fields.omega4)
    return [w - s for w, s in zip(omegas, lv.doppler_shifts(sch, v))]


def oracle_state(relax, medium, det, g1, g3):
    """The 16x16 steady state at the detunings ``det`` = (om1p, om2p, om4p)."""
    return ref.zeroth_order_batch(relax, medium.p_n, *det, g1, g3)


def probe_response(rho, relax, det, g1, g3):
    """(a4, b4, a2, b2) around the steady state ``rho``."""
    return lv.probe_response_compact(lv.compact_sources(rho), *det, g1, g3, relax)


def populations(rho):
    return np.real(np.diagonal(rho))


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# --------------------------------------------------------------------------
# doppler_shifts
# --------------------------------------------------------------------------

def test_zero_velocity_keeps_detunings(preset):
    sch, _, _, fields = preset
    assert detuned(fields, sch, 0.0) == [
        fields.omega1, fields.omega2, fields.omega3, fields.omega4]


def test_velocity_shift_value(preset):
    sch, _, _, _ = preset
    fields = FieldConfig(omega1=0.0, omega3=0.0, omega4=0.0)
    om4p = detuned(fields, sch, 100.0)[3]
    # 100 m/s on the 480 nm transition: 100/480nm = 208.3 MHz red shift
    assert om4p == pytest.approx(-100.0 / 480e-9 * 1e-6, rel=1e-12)
    assert om4p == pytest.approx(-208.33, rel=1e-3)


def test_velocity_closure(preset):
    sch, _, _, fields = preset
    for v in (-700.0, -13.7, 211.0, 1500.0):
        om1p, om2p, om3p, om4p = detuned(fields, sch, v)
        derived = om1p + om3p - om4p
        assert abs(om2p - derived) <= 1e-9 * max(1.0, abs(derived))


def test_raman_detuning_varies_with_velocity(preset):
    sch, _, _, fields = preset
    d0 = detuned(fields, sch, 0.0)
    d1 = detuned(fields, sch, 100.0)
    raman0 = d0[0] - d0[3]
    raman1 = d1[0] - d1[3]
    # far-from-degenerate: the two-photon detuning is velocity dependent
    assert abs(raman1 - raman0) > 50.0


# --------------------------------------------------------------------------
# zeroth order
# --------------------------------------------------------------------------

def test_zero_field_equilibrium(preset):
    sch, relax, medium, fields = preset
    om1p, om2p, _, om4p = detuned(fields, sch, 0.0)
    rho = oracle_state(relax, medium, (om1p, om2p, om4p), 0.0, 0.0)
    assert np.allclose(populations(rho), [1 - medium.p_n, medium.p_n, 0.0, 0.0], atol=1e-13)
    off = rho - np.diag(np.diagonal(rho))
    assert np.max(np.abs(off)) < 1e-13


@pytest.mark.parametrize("g1", [1.0, 10.0, 100.0])
def test_two_level_saturation_oracle(preset, g1):
    # with G3 = 0 the l-g pair saturates like a two-level system whose
    # excited fraction follows from the pumping rate and the total decay
    sch, relax, medium, _ = preset
    for om1 in (0.0, 35.0):
        det = closed_detunings(om1, 50.0, -20.0)
        rho = oracle_state(relax, medium, det, g1, 0.0)
        g1a = RAD_PER_MHZ * g1
        om1a = RAD_PER_MHZ * om1
        pump = 2 * g1a**2 * relax.coh_gl / (relax.coh_gl**2 + om1a**2)
        oracle = pump / (relax.gamma_g + pump)
        pops = populations(rho)
        assert abs(pops[2] / pops[0] - oracle) <= 1e-10


def test_trace_and_hermiticity_strong_drives(preset):
    sch, relax, medium, _ = preset
    rng = np.random.default_rng(3)
    for _ in range(10):
        om = rng.uniform(-500, 500, 3)
        det = closed_detunings(*om)
        g1 = rng.uniform(0, 150) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        g3 = rng.uniform(0, 80) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rho = oracle_state(relax, medium, det, g1, g3)
        assert abs(np.real(np.trace(rho)) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        pops = populations(rho)
        assert np.all(pops > -1e-12) and np.all(pops < 1 + 1e-12)


_RATES = ("gamma_m", "gamma_g", "gamma_n", "coh_ml", "coh_gl", "coh_mn",
          "coh_gn", "coh_nl", "coh_gm", "sp_mn", "sp_ml", "sp_gn", "sp_gl")


def _normal_floats(lo, hi, **kwargs):
    # subnormal rates carry fewer significant bits than any tolerance below assumes
    return st.floats(lo, hi, allow_subnormal=False, **kwargs)


@st.composite
def relaxation_sets(draw):
    """Rates in [0, 300] whose spontaneous branches fit inside their level's decay."""
    rates = {name: draw(_normal_floats(0.0, 300.0)) for name in _RATES[:9]}
    for level, (a, b) in (("m", ("sp_mn", "sp_ml")), ("g", ("sp_gn", "sp_gl"))):
        total = rates["gamma_" + level]
        rates[a] = draw(_normal_floats(0.0, 1.0)) * total
        rates[b] = draw(_normal_floats(0.0, 1.0)) * (total - rates[a])
    return RelaxationSet(**rates)


_drive_amplitudes = st.one_of(
    st.just(0j),
    st.builds(lambda r, phi: r * np.exp(1j * phi), _floats(0.0, 200.0), _floats(0.0, 2 * np.pi)))


def _trace_replaced_liouvillian(relax, p_n, om1, om2, om4, g1, g3):
    L = ref.full_liouvillian(ref.rotating_hamiltonian(om1, om2, om4, g1, g3),
                             ref.relaxation_superop(relax, p_n))
    L[ref.IDX["ll"]] = ref._TRACE_ROW
    return L


@settings(max_examples=300, deadline=None)
@given(
    relax=relaxation_sets(),
    p_n=_normal_floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    om=st.tuples(*[_floats(-500.0, 500.0)] * 3),
    g1=_drive_amplitudes,
    g3=_drive_amplitudes,
)
@example(relax=RelaxationSet(), p_n=0.02, om=(120.0, -35.0, 60.0),
         g1=90 * np.exp(0.7j), g3=37 * np.exp(-1.2j))
def test_fast_even_sector_matches_full_liouvillian(relax, p_n, om, g1, g3):
    # the closed-form drive sector against the 16x16 oracle.  The closed form
    # may call a system singular only where the oracle's matrix is; draws the
    # oracle reports singular, or where its own rounding error (up to about
    # cond * eps) can exceed the tolerance, are not compared
    om1, om3, om4 = om
    om2 = om1 + om3 - om4
    cond = np.linalg.cond(_trace_replaced_liouvillian(relax, p_n, om1, om2, om4, g1, g3))
    try:
        fast = lv.drive_steady_state_batch(relax, p_n, om1, om3, g1, g3)
    except lv.SingularSystemError:
        assert cond > 1e12
        return
    assert abs(np.trace(fast) - 1.0) <= 1e-14
    assert fast[0, 2] == np.conj(fast[2, 0]) and fast[1, 3] == np.conj(fast[3, 1])
    pops = np.diagonal(fast)
    assert np.all(pops.imag == 0) and np.all((pops.real >= 0) & (pops.real <= 1))
    try:
        full = ref.zeroth_order_batch(relax, p_n, om1, om2, om4, g1, g3)
    except lv.SingularSystemError:
        return
    if cond <= 1e4:
        assert np.max(np.abs(fast - full)) <= 1e-12 * max(1.0, np.max(np.abs(full)))


_DEAD = dict.fromkeys(_RATES, 0.0)


@pytest.mark.parametrize("changes, om1, om3, g1, g3, index", [
    # the steady state is not unique anywhere
    pytest.param(_DEAD, np.array([10.0, 0.0, 5.0]), 3.0, 50.0, 20.0, 0, id="no-relaxation"),
    # level g neither decays nor is pumped where G1 = 0
    pytest.param(dict(gamma_g=0.0, sp_gn=0.0, sp_gl=0.0), 0.0, 0.0,
                 np.array([40.0, 10.0, 0.0, 5.0]), 20.0, 2, id="no-g-decay-at-zero-G1"),
    # an undamped drive coherence at exact resonance
    pytest.param(dict(coh_gl=0.0), np.array([30.0, -20.0, 10.0, 0.0, 5.0]), 0.0, 50.0, 20.0, 3,
                 id="undamped-gl-at-resonance"),
])
@pytest.mark.parametrize("route", ["drive-sector", "16x16"])
def test_singular_system_raises(route, changes, om1, om3, g1, g3, index):
    # both routes name the same first singular system
    relax = replace(na2_preset()[1], **changes)
    om4 = 25.0
    with pytest.raises(lv.SingularSystemError) as info:
        if route == "drive-sector":
            lv.drive_steady_state_batch(relax, 0.02, om1, om3, g1, g3)
        else:
            ref.zeroth_order_batch(relax, 0.02, om1, np.add(om1, om3) - om4, om4, g1, g3)
    assert info.value.index == index


def test_oracle_refuses_undamped_drive_pair():
    # level m neither decays nor dephases from n: with G3 on, the n-m pair is
    # an undamped two-level system whose populations no steady state fixes.
    # The oracle says so, as the drive sector does, instead of answering
    relax = replace(na2_preset()[1], gamma_m=0.0, coh_mn=0.0, sp_mn=0.0, sp_ml=0.0)
    rng = np.random.default_rng(41)
    for _ in range(20):
        om1, om3, om4 = rng.uniform(-500, 500, 3)
        g1 = rng.uniform(0, 200) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        g3 = rng.uniform(1, 200) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        with pytest.raises(lv.SingularSystemError) as info:
            ref.zeroth_order_batch(relax, 0.02, om1, om1 + om3 - om4, om4, g1, g3)
        assert info.value.index == 0
        with pytest.raises(lv.SingularSystemError):
            lv.drive_steady_state_batch(relax, 0.02, om1, om3, g1, g3)


# --------------------------------------------------------------------------
# probe response
# --------------------------------------------------------------------------

def test_zero_drive_probe_is_lorentzian(preset):
    sch, relax, medium, _ = preset
    for om4 in (-120.0, 0.0, 55.0):
        det = closed_detunings(0.0, 0.0, om4)
        rho = oracle_state(relax, medium, det, 0.0, 0.0)
        a4, b4, _, b2 = probe_response(rho, relax, det, 0.0, 0.0)
        expected = 1j * RAD_PER_MHZ * (1 - medium.p_n) / (
            relax.coh_ml - 1j * RAD_PER_MHZ * om4)
        assert abs(a4 - expected) / abs(expected) < 1e-10
        assert b4 == 0 and b2 == 0


def test_cross_coupling_zero_when_either_drive_off(preset):
    sch, relax, medium, _ = preset
    det = closed_detunings(10.0, 100.0, 60.0)
    for g1, g3 in ((80.0, 0.0), (0.0, 40.0), (0.0, 0.0)):
        rho = oracle_state(relax, medium, det, g1, g3)
        _, b4, _, b2 = probe_response(rho, relax, det, g1, g3)
        assert abs(b4) <= 1e-12
        assert abs(b2) <= 1e-12


def test_autler_townes_doublet(preset):
    # strong resonant G1, no G3: the Stokes probe sees the dressed l-g pair,
    # split by the Rabi amplitude
    sch, relax, medium, _ = preset
    g1 = 300.0
    om2 = np.linspace(-700, 700, 1401)
    rho0 = lv.drive_steady_state_batch(relax, medium.p_n, 0.0, om2 - 0.0, g1, 0.0)
    # omega3 enters only through om2 here; om4 = om1 + om3 - om2 = -om2
    _, _, a2, _ = lv.probe_response_compact(
        lv.compact_sources(rho0), 0.0, om2, -om2, g1, 0.0, relax)
    absorption = np.imag(a2)
    mid = om2.size // 2
    left = np.argmax(np.abs(absorption[:mid]))
    right = mid + np.argmax(np.abs(absorption[mid:]))
    assert abs(abs(om2[left]) - g1) / g1 < 0.2
    assert abs(abs(om2[right]) - g1) / g1 < 0.2


def test_probe_linearity_in_normalization(preset):
    # responses are per unit probe amplitude; reconstructing rho_ml from
    # doubled probe inputs and renormalizing is an identity
    sch, relax, medium, _ = preset
    det = closed_detunings(0.0, 100.0, 160.0)
    rho = oracle_state(relax, medium, det, 100.0, 40.0)
    a4, b4, _, _ = probe_response(rho, relax, det, 100.0, 40.0)
    for amp in (1e-6, 1e-3, 1.0):
        rho_ml = a4 * amp + b4 * np.conj(0.5 * amp)
        rho_ml_2 = (a4 * (2 * amp) + b4 * np.conj(amp)) / 2
        assert abs(rho_ml - rho_ml_2) <= 1e-12 * max(abs(rho_ml), 1.0)


def test_conjugation_symmetry(preset):
    # flipping all detunings and conjugating the drives maps every output to
    # minus its conjugate (absorption parts even, dispersion parts odd); the
    # state conjugates up to the matching sign flips of the upper levels
    sch, relax, medium, _ = preset
    mirror_signs = np.diag([1.0, 1.0, -1.0, -1.0])
    rng = np.random.default_rng(23)
    for _ in range(20):
        om = rng.uniform(-300, 300, 3)
        det = closed_detunings(*om)
        mirror = closed_detunings(*(-om))
        g1 = rng.uniform(5, 120) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        g3 = rng.uniform(5, 60) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rho = oracle_state(relax, medium, det, g1, g3)
        rhom = oracle_state(relax, medium, mirror, np.conj(g1), np.conj(g3))
        mapped = mirror_signs @ rho.conj() @ mirror_signs
        assert np.max(np.abs(rhom - mapped)) < 1e-10
        pr = probe_response(rho, relax, det, g1, g3)
        prm = probe_response(rhom, relax, mirror, np.conj(g1), np.conj(g3))
        for got, expected in zip(prm, pr):
            assert abs(got + np.conj(expected)) <= 1e-10 * max(abs(expected), 1e-8)


def test_continuity_in_velocity(preset):
    sch, relax, medium, fields = preset
    deltas = [1.0, 0.1, 0.01, 0.001]
    diffs = []
    for dv in deltas:
        vals = []
        for v in (137.0, 137.0 + dv):
            om1p, om2p, _, om4p = detuned(fields, sch, v)
            det = (om1p, om2p, om4p)
            rho = oracle_state(relax, medium, det, 100.0, 40.0)
            vals.append(probe_response(rho, relax, det, 100.0, 40.0)[0])
        diffs.append(abs(vals[1] - vals[0]))
    assert diffs[-1] < 1e-4
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_probe_sector_is_closed(preset):
    # the drive-only Liouvillian couples (rho_nl, rho_ng, rho_ml, rho_mg) to
    # no other element, so its slice is the whole first-order probe block
    _, relax, medium, _ = preset
    sector = [ref.IDX[k] for k in ("nl", "ng", "ml", "mg")]
    rest = [i for i in range(16) if i not in sector]
    rng = np.random.default_rng(31)
    for _ in range(10):
        g1, g3 = rng.uniform(0, 150, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        L = ref.full_liouvillian(ref.rotating_hamiltonian(*rng.uniform(-300, 300, 3), g1, g3),
                                 ref.relaxation_superop(relax, medium.p_n))
        assert not L[np.ix_(sector, rest)].any() and not L[np.ix_(rest, sector)].any()


def dense_probe_solve(src, om1p, om2p, om4p, g1, g3, relax):
    """(a4, b4, a2, b2) and the solution scale from a pivoted dense 4x4 solve."""
    d4pop, d2pop, rho_lg, rho_gl, rho_nm, rho_mn = src
    M = ref.probe_block_matrix(om1p, om2p, om4p, g1, g3, relax)
    # minus the commutator sources of a unit G4 (column 0) and a unit
    # conj(G2) (column 1), restricted to (rho_nl, rho_ng, rho_ml, rho_mg)
    rhs = 1j * RAD_PER_MHZ * np.array([
        [rho_nm, -rho_gl],
        [0.0, -d2pop],
        [-d4pop, 0.0],
        [-rho_lg, rho_mn],
    ])
    x = np.linalg.solve(M, rhs)
    return (x[2, 0], x[2, 1], np.conj(x[1, 1]), np.conj(x[1, 0])), np.max(np.abs(x))


@settings(max_examples=300, deadline=None)
@given(
    om=st.tuples(_floats(-1000.0, 1000.0), _floats(-1000.0, 1000.0), _floats(-1000.0, 1000.0)),
    drives=st.tuples(_floats(0.0, 200.0), _floats(0.0, 200.0),
                     _floats(0.0, 2 * np.pi), _floats(0.0, 2 * np.pi)),
    rates=st.tuples(*[_floats(5.0, 300.0)] * 4),
    src=st.lists(st.tuples(_floats(-1.0, 1.0), _floats(-1.0, 1.0)), min_size=6, max_size=6),
)
def test_two_row_probe_solve_matches_dense_solve(om, drives, rates, src):
    # the closed-form rows 1 and 2 against LAPACK on the dense block, over
    # detunings, drives and positive coherence rates; the error is measured
    # against the largest element of the dense solution
    coh_nl, coh_gn, coh_ml, coh_gm = rates
    relax = replace(RelaxationSet(), coh_nl=coh_nl, coh_gn=coh_gn, coh_ml=coh_ml, coh_gm=coh_gm)
    g1 = drives[0] * np.exp(1j * drives[2])
    g3 = drives[1] * np.exp(1j * drives[3])
    src = tuple(complex(re, im) for re, im in src)
    got = lv.probe_response_compact(src, *om, g1, g3, relax)
    dense, scale = dense_probe_solve(src, *om, g1, g3, relax)
    for g, r in zip(got, dense):
        assert abs(g - r) <= 1e-12 * scale


def test_probe_solve_batches_like_single_systems(preset):
    # broadcasting gives each system its own solution, bit for bit
    sch, relax, medium, _ = preset
    rng = np.random.default_rng(29)
    om1 = rng.uniform(-300, 300, (lv._CHUNK // 100 + 3, 1))
    om2 = rng.uniform(-300, 300, (1, 100))
    g1, g3 = 90 * np.exp(0.4j), 35 * np.exp(-2.0j)
    rho0 = lv.drive_steady_state_batch(relax, medium.p_n, om1, 40.0, g1, g3)
    src = lv.compact_sources(rho0)
    batch = lv.probe_response_compact(src, om1, om2, 25.0, g1, g3, relax)
    for i, j in ((0, 0), (7, 55), (om1.shape[0] - 1, 99)):
        single = lv.probe_response_compact(
            tuple(x[i, 0] for x in src), om1[i, 0], om2[0, j], 25.0, g1, g3, relax)
        for b, s in zip(batch, single):
            assert b[i, j] == s


def test_singular_probe_block_raises():
    # without coherence decay of rho_nl and without drives, the block has a
    # zero diagonal entry, so its determinant is exactly zero where om2p = om1p
    relax = replace(RelaxationSet(), coh_nl=0.0)
    src = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    om2p = np.array([10.0, -20.0, 30.0, 0.0, 40.0])
    with pytest.raises(lv.SingularSystemError) as info:
        lv.probe_response_compact(src, 0.0, om2p, 0.0, 0.0, 0.0, relax)
    assert info.value.index == 3
    with pytest.raises(lv.SingularSystemError):
        lv.probe_response_compact(src, 0.0, 0.0, 0.0, 0.0, 0.0, relax)


# --------------------------------------------------------------------------
# brute-force time-evolution oracle
# --------------------------------------------------------------------------

def evolve_to_steady(relax, p_n, det, g1, g3, g4, g2, t_final=60.0):
    H = ref.rotating_hamiltonian(*det, g1, g3, g4, g2)
    L = ref.full_liouvillian(H, ref.relaxation_superop(relax, p_n))
    rho0 = np.zeros(16, dtype=complex)
    rho0[ref.IDX["ll"]] = 1 - p_n
    rho0[ref.IDX["nn"]] = p_n
    return (expm(L * t_final) @ rho0).reshape(4, 4)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_time_evolution_oracle(preset, seed):
    sch, relax, medium, _ = preset
    rng = np.random.default_rng(seed)
    om = rng.uniform(-150, 150, 3)
    det = closed_detunings(*om)
    g1 = rng.uniform(40, 110) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    g3 = rng.uniform(15, 55) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    g4 = 1e-4 * np.exp(1j * rng.uniform(0, 2 * np.pi))
    g2 = 1e-4 * np.exp(1j * rng.uniform(0, 2 * np.pi))

    rho_t = evolve_to_steady(relax, medium.p_n, det, g1, g3, g4, g2)
    assert abs(np.trace(rho_t) - 1.0) < 1e-10

    rho = oracle_state(relax, medium, det, g1, g3)
    a4, b4, a2, b2 = probe_response(rho, relax, det, g1, g3)
    pred_ml = rho[3, 0] + a4 * g4 + b4 * np.conj(g2)
    pred_gn = rho[2, 1] + a2 * g2 + b2 * np.conj(g4)
    assert abs(rho_t[3, 0] - pred_ml) / abs(pred_ml) < 1e-2
    assert abs(rho_t[2, 1] - pred_gn) / abs(pred_gn) < 1e-2
    # populations and drive coherences match the zeroth order
    assert np.max(np.abs(np.diagonal(rho_t).real - populations(rho))) < 1e-6
    assert abs(rho_t[2, 0] - rho[2, 0]) < 1e-6
