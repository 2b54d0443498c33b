"""Per-velocity steady state and linear probe response.

The time-evolution oracle at the bottom is the primary defense against sign
and convention errors: it propagates the full master equation (probes
included at small finite amplitude) with an independent matrix-exponential
integrator and compares against the zeroth-order plus linear-response
prediction.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lcq import liouville as lv
from lcq.scheme import RAD_PER_MHZ, FieldConfig, RelaxationSet, na2_preset


@pytest.fixture(scope="module")
def preset():
    return na2_preset()


def closed_detunings(om1, om3, om4):
    return lv.VelocityDetunings(om1, om1 + om3 - om4, om3, om4)


# --------------------------------------------------------------------------
# detune_for_velocity
# --------------------------------------------------------------------------

def test_zero_velocity_keeps_detunings(preset):
    sch, _, _, fields = preset
    det = lv.detune_for_velocity(fields, sch, 0.0)
    assert (det.omega1p, det.omega2p, det.omega3p, det.omega4p) == (
        fields.omega1, fields.omega2, fields.omega3, fields.omega4)


def test_velocity_shift_value(preset):
    sch, _, _, _ = preset
    fields = FieldConfig(omega1=0.0, omega3=0.0, omega4=0.0)
    det = lv.detune_for_velocity(fields, sch, 100.0)
    # 100 m/s on the 480 nm transition: 100/480nm = 208.3 MHz red shift
    assert det.omega4p == pytest.approx(-100.0 / 480e-9 * 1e-6, rel=1e-12)
    assert det.omega4p == pytest.approx(-208.33, rel=1e-3)


def test_velocity_closure(preset):
    sch, _, _, fields = preset
    for v in (-700.0, -13.7, 211.0, 1500.0):
        det = lv.detune_for_velocity(fields, sch, v)
        derived = det.omega1p + det.omega3p - det.omega4p
        assert abs(det.omega2p - derived) <= 1e-9 * max(1.0, abs(derived))


def test_raman_detuning_varies_with_velocity(preset):
    sch, _, _, fields = preset
    d0 = lv.detune_for_velocity(fields, sch, 0.0)
    d1 = lv.detune_for_velocity(fields, sch, 100.0)
    raman0 = d0.omega1p - d0.omega4p
    raman1 = d1.omega1p - d1.omega4p
    # far-from-degenerate: the two-photon detuning is velocity dependent
    assert abs(raman1 - raman0) > 50.0


# --------------------------------------------------------------------------
# zeroth order
# --------------------------------------------------------------------------

def test_zero_field_equilibrium(preset):
    sch, relax, medium, fields = preset
    det = lv.detune_for_velocity(fields, sch, 0.0)
    st = lv.solve_zeroth_order(sch, relax, medium, det, 0.0, 0.0)
    assert np.allclose(st.populations, [1 - medium.p_n, medium.p_n, 0.0, 0.0], atol=1e-13)
    off = st.rho - np.diag(np.diagonal(st.rho))
    assert np.max(np.abs(off)) < 1e-13


@pytest.mark.parametrize("g1", [1.0, 10.0, 100.0])
def test_two_level_saturation_oracle(preset, g1):
    # with G3 = 0 the l-g pair saturates like a two-level system whose
    # excited fraction follows from the pumping rate and the total decay
    sch, relax, medium, _ = preset
    for om1 in (0.0, 35.0):
        det = closed_detunings(om1, 50.0, -20.0)
        st = lv.solve_zeroth_order(sch, relax, medium, det, g1, 0.0)
        g1a = RAD_PER_MHZ * g1
        om1a = RAD_PER_MHZ * om1
        pump = 2 * g1a**2 * relax.coh_gl / (relax.coh_gl**2 + om1a**2)
        oracle = pump / (relax.gamma_g + pump)
        pops = st.populations
        assert abs(pops[2] / pops[0] - oracle) <= 1e-10


def test_trace_and_hermiticity_strong_drives(preset):
    sch, relax, medium, _ = preset
    rng = np.random.default_rng(3)
    for _ in range(10):
        om = rng.uniform(-500, 500, 3)
        det = closed_detunings(*om)
        g1 = rng.uniform(0, 150) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        g3 = rng.uniform(0, 80) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        st = lv.solve_zeroth_order(sch, relax, medium, det, g1, g3)
        assert abs(st.trace - 1.0) < 1e-12
        assert np.max(np.abs(st.rho - st.rho.conj().T)) < 1e-12
        pops = st.populations
        assert np.all(pops > -1e-12) and np.all(pops < 1 + 1e-12)


def test_fast_even_sector_matches_full_liouvillian(preset):
    sch, relax, medium, _ = preset
    rng = np.random.default_rng(17)
    om1 = rng.uniform(-300, 300, 40)
    om3 = rng.uniform(-300, 300, 40)
    om4 = rng.uniform(-300, 300, 40)
    om2 = om1 + om3 - om4
    g1 = 90 * np.exp(0.7j)
    g3 = 37 * np.exp(-1.2j)
    fast = lv.drive_steady_state_batch(relax, medium.p_n, om1, om3, g1, g3)
    full = lv.zeroth_order_batch(relax, medium.p_n, om1, om2, om4, g1, g3)
    assert np.max(np.abs(fast - full)) < 1e-12


def test_singular_system_raises():
    relax = na2_preset()[1]
    # all-zero relaxation makes the steady state non-unique
    from dataclasses import replace
    dead = replace(relax, gamma_m=0.0, gamma_g=0.0, gamma_n=0.0,
                   coh_ml=0.0, coh_gl=0.0, coh_mn=0.0, coh_gn=0.0,
                   coh_nl=0.0, coh_gm=0.0, sp_mn=0.0, sp_ml=0.0,
                   sp_gn=0.0, sp_gl=0.0)
    with pytest.raises(lv.SingularSystemError):
        lv.zeroth_order_batch(dead, 0.02, 0.0, 0.0, 0.0, 0.0, 0.0)


# --------------------------------------------------------------------------
# probe response
# --------------------------------------------------------------------------

def test_zero_drive_probe_is_lorentzian(preset):
    sch, relax, medium, _ = preset
    for om4 in (-120.0, 0.0, 55.0):
        det = closed_detunings(0.0, 0.0, om4)
        st = lv.solve_zeroth_order(sch, relax, medium, det, 0.0, 0.0)
        pr = lv.solve_probe_response(st, sch, relax, det, 0.0, 0.0)
        expected = 1j * RAD_PER_MHZ * (1 - medium.p_n) / (
            relax.coh_ml - 1j * RAD_PER_MHZ * om4)
        assert abs(pr.a4 - expected) / abs(expected) < 1e-10
        assert pr.b4 == 0 and pr.b2 == 0


def test_cross_coupling_zero_when_either_drive_off(preset):
    sch, relax, medium, _ = preset
    det = closed_detunings(10.0, 100.0, 60.0)
    for g1, g3 in ((80.0, 0.0), (0.0, 40.0), (0.0, 0.0)):
        st = lv.solve_zeroth_order(sch, relax, medium, det, g1, g3)
        pr = lv.solve_probe_response(st, sch, relax, det, g1, g3)
        assert abs(pr.b4) <= 1e-12
        assert abs(pr.b2) <= 1e-12


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
    st = lv.solve_zeroth_order(sch, relax, medium, det, 100.0, 40.0)
    pr = lv.solve_probe_response(st, sch, relax, det, 100.0, 40.0)
    for amp in (1e-6, 1e-3, 1.0):
        rho_ml = pr.a4 * amp + pr.b4 * np.conj(0.5 * amp)
        rho_ml_2 = (pr.a4 * (2 * amp) + pr.b4 * np.conj(amp)) / 2
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
        st = lv.solve_zeroth_order(sch, relax, medium, det, g1, g3)
        stm = lv.solve_zeroth_order(sch, relax, medium, mirror,
                                    np.conj(g1), np.conj(g3))
        mapped = mirror_signs @ st.rho.conj() @ mirror_signs
        assert np.max(np.abs(stm.rho - mapped)) < 1e-10
        pr = lv.solve_probe_response(st, sch, relax, det, g1, g3)
        prm = lv.solve_probe_response(stm, sch, relax, mirror,
                                      np.conj(g1), np.conj(g3))
        for got, ref in ((prm.a4, pr.a4), (prm.a2, pr.a2),
                         (prm.b4, pr.b4), (prm.b2, pr.b2)):
            assert abs(got + np.conj(ref)) <= 1e-10 * max(abs(ref), 1e-8)


def test_continuity_in_velocity(preset):
    sch, relax, medium, fields = preset
    deltas = [1.0, 0.1, 0.01, 0.001]
    diffs = []
    for dv in deltas:
        vals = []
        for v in (137.0, 137.0 + dv):
            det = lv.detune_for_velocity(fields, sch, v)
            st = lv.solve_zeroth_order(sch, relax, medium, det, 100.0, 40.0)
            pr = lv.solve_probe_response(st, sch, relax, det, 100.0, 40.0)
            vals.append(pr.a4)
        diffs.append(abs(vals[1] - vals[0]))
    assert diffs[-1] < 1e-4
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def dense_probe_solve(src, om1p, om2p, om4p, g1, g3, relax):
    """(a4, b4, a2, b2) and the solution scale from a pivoted dense 4x4 solve."""
    d4pop, d2pop, rho_lg, rho_gl, rho_nm, rho_mn = src
    M = lv.probe_block_matrix(om1p, om2p, om4p, g1, g3, relax)
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
    ref, scale = dense_probe_solve(src, *om, g1, g3, relax)
    for g, r in zip(got, ref):
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
    H = lv.rotating_hamiltonian(det.omega1p, det.omega2p, det.omega4p, g1, g3, g4, g2)
    L = lv.full_liouvillian(H, lv.relaxation_superop(relax, p_n))
    rho0 = np.zeros(16, dtype=complex)
    rho0[lv.IDX["ll"]] = 1 - p_n
    rho0[lv.IDX["nn"]] = p_n
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

    st = lv.solve_zeroth_order(sch, relax, medium, det, g1, g3)
    pr = lv.solve_probe_response(st, sch, relax, det, g1, g3)
    pred_ml = st.rho[3, 0] + pr.a4 * g4 + pr.b4 * np.conj(g2)
    pred_gn = st.rho[2, 1] + pr.a2 * g2 + pr.b2 * np.conj(g4)
    assert abs(rho_t[3, 0] - pred_ml) / abs(pred_ml) < 1e-2
    assert abs(rho_t[2, 1] - pred_gn) / abs(pred_gn) < 1e-2
    # populations and drive coherences match the zeroth order
    assert np.max(np.abs(np.diagonal(rho_t).real - st.populations)) < 1e-6
    assert abs(rho_t[2, 0] - st.rho_gl) < 1e-6
