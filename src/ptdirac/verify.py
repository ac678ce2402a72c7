"""Seeded residual suites over every invariant the library promises.

The Clifford group checks constant tables and draws nothing.  Every other
group draws its inputs as row-major blocks of uniform numbers, shape
(trials, width), one block per generator keyed by (seed, group id, stream):
stream 0 holds the plane-wave specs, stream 1 every other input.  Trial i is
row i of each block, so its inputs do not depend on the number of trials and
a report is bit-identical for a fixed seed and trial count.  A trial can be
replayed in isolation: a block's generator is PCG64 and each uniform takes
one 64-bit step, so advancing a fresh generator by i * width steps gives row
i.  Every drawn check runs as array passes over all trials: the plane-wave
specs form one group per species and basis (at most 6), with each trial's
energy sign and helicity as entries of per-row columns, and checks that need
one particular label run on the rows that carry it.  A check passes when its
worst residual over all trials stays at or below the tolerance it was run
with; the worst residual is NaN when any residual is, so a NaN never passes.
A check with no rows at the trial count given, as `spinors.chirality_massless`
at one trial, prints `max residual 0.000e+00  PASS`; it is not yet skipped.
The acceptance tests re-run the same checks against the per-invariant
tolerances they pin.
"""
from __future__ import annotations

import functools
import zlib
from typing import NamedTuple

import numpy as np

from . import clifford, kinematics, observables, spinors, symmetries
from .clifford import METRIC, PAULI, Representation, _norm, _rows, dagger, gamma_set
from .kinematics import Species, minkowski_dot
from .spinors import SpecGroup


class CheckResult(NamedTuple):
    name: str
    max_residual: float
    passed: bool


class VerificationReport(NamedTuple):
    seed: int
    trials: int
    tol: float
    checks: tuple[CheckResult, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _results(group: str, tol: float, **checks) -> list[CheckResult]:
    """One result per keyword, named `group.keyword`; keyword order is report
    order.  A check's parts are floats or arrays of residuals, and its worst
    residual is the largest of their maxima: NaN, which fails, when any part
    holds a NaN, and 0.0, which passes, when there are no parts or only empty
    ones.  The reductions are `np.max`'s own ufunc, called without its
    wrapper, which costs more than the reduction on verify's ~200 parts."""
    results = []
    for name, parts in checks.items():
        worst = float(np.maximum.reduce([np.maximum.reduce(part, axis=None, initial=0.0)
                                         for part in parts], initial=0.0))
        results.append(CheckResult(f"{group}.{name}", worst, worst <= tol))
    return results


def _check_arguments(trials: int, tol: float):
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


@functools.cache
def _gamma5_commutator(rep: Representation) -> np.ndarray:
    """X -> X g5 - g5 X as a (16, 16) matrix acting from the right on
    flattened 4x4 matrices.  gamma^5 is a signed permutation in both bases,
    so a flattened stack (n, 16) times it is exact, one 2-D matmul."""
    g5, e = gamma_set(rep).gamma5, np.eye(16).reshape(16, 4, 4)
    return (e @ g5 - g5 @ e).reshape(16, 16)


_SPECS, _INPUTS = 0, 1   # the streams of a group


def _uniforms(seed: int, group: str, stream: int, trials: int, width: int) -> np.ndarray:
    """Uniforms in [0, 1) of one stream of one group, shape (trials, width),
    returned transposed, one column per input: column j of row i is the
    (i * width + j)-th draw of the stream."""
    rng = np.random.default_rng((seed, zlib.crc32(group.encode("ascii")), stream))
    return rng.random((trials, width)).T


def _scaled(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return lo + (hi - lo) * u


def _directions(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unit vectors (n, 3), uniform on the sphere: cos(theta) = 2u - 1 and
    phi = 2 pi v."""
    z = 2.0 * u - 1.0
    rho = np.sqrt((1.0 - z) * (1.0 + z))
    phi = 2.0 * np.pi * v
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


_COMBOS = [(species, sign, lam, rep)
           for species in (Species.PSEUDOTACHYON, Species.BRADYON, Species.LUXON)
           for sign in (1, -1)
           for lam in (1, -1)
           for rep in (Representation.STANDARD, Representation.WEYL)]


def random_spec(seed: int, group: str, trials: int, *, massive: bool = False) -> list[SpecGroup]:
    """The plane-wave specs of every trial, one group per species and basis.

    Trial i takes its labels from species x sign x helicity x basis cycled by
    i, and its masses and momenta from row i of the group's spec stream; the
    energy sign and helicity of each trial are columns of its group.
    Pseudotachyon shells span k in [m, 10m] and hit k = m exactly on a fixed
    subsequence.  ``massive`` drops the luxons and caps the scales (m up to
    2, k up to 8m), for checks that divide by the mass and whose absolute
    residuals grow with k^2/m.
    """
    combos = [c for c in _COMBOS if not (massive and c[0] is Species.LUXON)]
    m_hi, k_fac = (2.0, 8.0) if massive else (3.0, 10.0)
    u_m, u_k, u_z, u_phi = _uniforms(seed, group, _SPECS, trials, 4)
    n = _directions(u_z, u_phi)
    combo_of = np.arange(trials) % len(combos)
    signs, lams = (np.array([c[j] for c in combos]) for j in (1, 2))
    groups = []
    for species, rep in dict.fromkeys((c[0], c[3]) for c in combos[:trials]):
        member = np.array([(c[0], c[3]) == (species, rep) for c in combos])
        rows = np.flatnonzero(member[combo_of])
        m = _scaled(u_m[rows], 0.2, m_hi)
        if species is Species.LUXON:
            m, k = np.zeros(len(rows)), _scaled(u_k[rows], 0.05, 10.0)
        elif species is Species.PSEUDOTACHYON:
            transcendent = (rows // len(combos)) % 8 == 0
            k = np.where(transcendent, m, m * _scaled(u_k[rows], 1.0, k_fac))
        else:
            k = m * _scaled(u_k[rows], 0.02, k_fac)
        groups.append(SpecGroup.from_arrays(species, rep, signs[combo_of[rows]],
                                            lams[combo_of[rows]], k[:, None] * n[rows], m,
                                            rows))
    return groups


# ---------------------------------------------------------------- clifford

@functools.cache
def _clifford_identities() -> tuple[tuple[float, ...], ...]:
    """The residuals of the clifford checks, none of which uses a draw, the
    anticommutators of all 32 (basis, mu, nu) included: computed once, since
    `gamma_set` returns the same read-only tables on every call."""
    anti, herm, g5p, a5sq = [], [], [], []
    for rep in Representation:
        gs = gamma_set(rep)
        ab = gs.gammas[:, None] @ gs.gammas[None]
        anti.extend(ab + np.swapaxes(ab, 0, 1) - 2.0 * METRIC[:, :, None, None] * np.eye(4))
        herm += [dagger(gs.gammas[0]) - gs.gammas[0], *(dagger(gs.gammas[1:]) + gs.gammas[1:]),
                 dagger(gs.gamma5) - gs.gamma5]
        g5p += [gs.gamma5 - 1j * gs.gammas[0] @ gs.gammas[1] @ gs.gammas[2] @ gs.gammas[3],
                gs.gamma5 @ gs.gamma5 - np.eye(4)]
        a5sq.append(gs.alpha5 @ gs.alpha5 + np.eye(4))

    w = clifford.representation_change()
    gw, gstd = gamma_set(Representation.WEYL), gamma_set(Representation.STANDARD)
    wmap = [w @ w - np.eye(4), dagger(w) @ w - np.eye(4), *(w @ gw.gammas @ w - gstd.gammas),
            w @ gw.gamma5 @ w - gstd.gamma5]
    spin = gstd.sigma_spin - gstd.alpha @ gstd.gamma5
    anti, herm, g5p, a5sq, wmap, spin = (_norm(np.array(d), axis=(-2, -1)).ravel()
                                         for d in (anti, herm, g5p, a5sq, wmap, spin))
    block = [np.abs(gstd.sigma_spin[i] - np.kron(np.eye(2), s)).max() for i, s in enumerate(PAULI)]
    return tuple(map(tuple, (anti, herm, g5p, a5sq, wmap, [*block, *spin])))


def clifford_checks(seed: int, trials: int, tol: float) -> list[CheckResult]:
    _check_arguments(trials, tol)
    anti, herm, g5p, a5sq, wmap, block = _clifford_identities()
    return _results("clifford", tol, anticommutation=anti, hermiticity=herm, gamma5_product=g5p,
                    alpha5_square=a5sq, weyl_map=wmap, spin_block=block)


# -------------------------------------------------------------- kinematics

def kinematics_checks(seed: int, trials: int, tol: float) -> list[CheckResult]:
    _check_arguments(trials, tol)
    u_m, u_k, u_e1, u_e2, u_mm, u_z1, u_z2, *u_dirs = _uniforms(
        seed, "kinematics", _INPUTS, trials, 13)
    dual_dirs, boost_dirs, axes = (_directions(u_dirs[j], u_dirs[j + 1]) for j in (0, 2, 4))
    species_of = np.arange(trials) % 3
    k, eps = np.empty(trials), np.empty(trials)
    shell = []
    pt, brad, lux = Species.PSEUDOTACHYON, Species.BRADYON, Species.LUXON
    # each shell is read back by the shell with eps and k exchanged
    for s, (species, inverse) in enumerate(((pt, brad), (brad, pt), (lux, lux))):
        at = species_of == s
        m = _scaled(u_m[at], 0.2, 3.0)
        if species is lux:
            m, k[at] = np.zeros_like(m), _scaled(u_k[at], 0.05, 10.0)
        elif species is pt:
            k[at] = m * _scaled(u_k[at], 1.0, 10.0)
        else:
            # sqrt(eps - m) reconstruction is conditioned by (m/k)^2
            k[at] = m * _scaled(u_k[at], 0.1, 10.0)
        eps[at] = kinematics.energy_from_momentum(species, k[at], m)
        k_back = kinematics.energy_from_momentum(inverse, eps[at], m)
        shell.append(np.abs(k_back - k[at]) / k[at])

    massive = species_of != 2
    pm = np.concatenate([eps[massive, None], k[massive, None] * dual_dirs[massive]], axis=1)
    pd = kinematics.dual_momentum(pm)
    pm2 = minkowski_dot(pm, pm)
    dual_scale = np.maximum(1.0, np.abs(pm2))
    dual = [np.abs(minkowski_dot(pm, pd)) / dual_scale,
            np.abs(minkowski_dot(pd, pd) + pm2) / dual_scale]

    e1 = _scaled(u_e1, 0.01, 10.0)
    e2 = e1 * _scaled(u_e2, 1.0001, 2.0)
    mm = _scaled(u_mm, 0.1, 3.0)
    s1, s2 = kinematics._speed_columns(e1, mm), kinematics._speed_columns(e2, mm)
    speed = [np.maximum(-s1.v, 0.0), np.maximum(s1.v - 1.0, 0.0), np.maximum(1.0 - s1.w, 0.0),
             np.fmax(-s1.u, 0.0), np.fmax(s1.u - 1.0, 0.0),  # fmax: 0 where u is absent (NaN)
             np.maximum(s1.v - s2.v, 0.0),      # v strictly increasing
             np.abs(s1.v * s1.w - 1.0)]

    p4 = np.concatenate([eps[:, None], k[:, None] * boost_dirs], axis=1)
    n = kinematics._unit_axis(axes)
    z1, z2 = _scaled(u_z1, -2.0, 2.0), _scaled(u_z2, -2.0, 2.0)
    q = kinematics._boost_arrays(p4, n, z1)
    p2 = minkowski_dot(p4, p4)
    # relative to the squared scale of the boosted components
    scale = np.maximum(np.maximum(1.0, np.abs(p2)), np.max(np.abs(q), axis=1) ** 2)
    binv = [np.abs(minkowski_dot(q, q) - p2) / scale]
    q12 = kinematics._boost_arrays(q, n, z2)
    q_once = kinematics._boost_arrays(p4, n, z1 + z2)
    bcomp = [np.max(np.abs(q12 - q_once), axis=1)
             / np.maximum(1.0, np.max(np.abs(q_once), axis=1))]
    return _results("kinematics", tol, shell_roundtrip=shell, dual_momentum=dual, speeds=speed,
                    boost_invariance=binv, boost_composition=bcomp)


# ----------------------------------------------------------------- spinors

def spinor_checks(seed: int, trials: int, tol: float) -> list[CheckResult]:
    _check_arguments(trials, tol)
    (u_volume,) = _uniforms(seed, "spinors", _INPUTS, trials, 1)
    volumes = _scaled(u_volume, 0.1, 10.0)

    solution, norm, normid, hel, chir, transc, adjoint, repmap = ([] for _ in range(8))
    for g in random_spec(seed, "spinors", trials):
        gs = gamma_set(g.rep)
        w = spinors.group_amplitudes(g)
        nw = _norm(w)
        n2 = np.einsum("ni,ni->n", w.conj(), w).real
        h = g.helicity_eigenvalue[:, None]
        solution.append(spinors.solution_residual(g, w))
        norm.append(np.abs(n2 - spinors.norm_convention(g)))
        v = volumes[g.rows]
        normid.append(np.abs(spinors.normalization_factor(g, v) ** 2 * n2 * v - 1.0))

        sigma_p = clifford.contract(g.momentum, gs.sigma_spin)
        lam_op = sigma_p / g.k[:, None, None]
        hel.append(spinors.relative_residual(lam_op, w, h))

        standard = g.rep is Representation.STANDARD
        if g.species is Species.LUXON:
            chir.append(spinors.relative_residual(gs.gamma5, w, h))
            if standard:
                # massless positive-energy amplitudes coincide entrywise with
                # the opposite-helicity negative-energy ones (up to sign)
                u = g.energy_sign == 1
                twin = spinors.group_amplitudes(
                    g._replace(energy_sign=-g.energy_sign, helicity=-g.helicity))
                chir.append(_norm(w[u] - g.helicity[u, None] * twin[u]) / nw[u])
        if g.species is Species.PSEUDOTACHYON and standard:
            at = g.epsilon == 0.0
            psig = sigma_p[at, :2, :2]  # p.sigma, the upper-left block of p.Sigma
            # the u-system decouples as (p.s - m) phi = (p.s + m) chi = 0;
            # the v-system carries the mirrored signs
            sm = (g.energy_sign[at] * g.mass[at])[:, None, None] * np.eye(2)
            transc.append(_norm(_rows(psig + sm, w[at, 2:])) / nw[at])
            transc.append(_norm(_rows(psig - sm, w[at, :2])) / nw[at])
        if g.species is Species.PSEUDOTACHYON:
            u = g.energy_sign == 1
            wbar = w[u].conj() @ gs.gammas[0]
            # slash(p) + m gamma^5
            adj_op = spinors.wave_operator(g, g.four_momentum[u], -g.mass[u])
            adjoint.append(_norm(_rows(np.swapaxes(adj_op, 1, 2), wbar)) / nw[u])
        if not standard:
            twin = spinors.group_amplitudes(g._replace(rep=Representation.STANDARD))
            repmap.append(spinors.proportionality_defect(
                spinors.convert_representation(w, g.rep, Representation.STANDARD), twin))
    return _results("spinors", tol, dirac_solution=solution, norm_convention=norm,
                    normalization_identity=normid, helicity=hel, chirality_massless=chir,
                    transcendent_decoupling=transc, adjoint_equation=adjoint,
                    representation_map=repmap)


# ------------------------------------------------------------- observables

def observable_checks(seed: int, trials: int, tol: float) -> list[CheckResult]:
    _check_arguments(trials, tol)
    dual, vclosed, vbar, sbar, cons, herm, eig = ([] for _ in range(7))
    for g in random_spec(seed, "observables", trials, massive=True):
        w = spinors.group_amplitudes(g)
        b, scale = observables.bilinears(w, g.rep)
        v = observables.mean_velocity(g, b)
        if g.species is Species.PSEUDOTACHYON:
            # the duality ratio amplifies bilinear roundoff by k/eps, so stay off
            # the transcendent point (which k > m excludes anyway)
            off = g.epsilon > 1e-4 * g.k
            speed = _norm(v[off])
            dual.append(np.abs(speed * g.k[off] / g.epsilon[off] - 1.0))
            dual.append(np.maximum(0.0, speed - 1.0))
        vclosed.append(np.abs(v - observables.mean_velocity_closed_form(g)))

        vb, sb = observables.mean_four_vectors(g, b, scale)
        vb_closed, sb_closed = observables.four_vector_closed_forms(g)
        vbar.append(np.abs(vb - vb_closed))
        sbar.append(np.abs(sb - sb_closed))
        vbar.append(np.abs(minkowski_dot(vb, vb) - 1.0))
        sbar.append(np.abs(minkowski_dot(sb, sb) + 1.0))
        cons.append(np.abs(observables.constraint_values(g, vb, sb)))

        # H(sign p), the operator of the physical wave, for both checks
        h = observables.hamiltonian(g.species, g.energy_sign[:, None] * g.momentum, g.mass,
                                    g.rep)
        h_dag = dagger(h)
        if g.species is Species.BRADYON:
            herm.append(_norm(h - h_dag, axis=(-2, -1)))
        else:
            # the m alpha^5 mass term is anti-hermitian: H is gamma^5
            # pseudo-hermitian, g5 H g5 = H^dag (exact: g5 is a signed
            # permutation), with real shell spectrum
            g5 = gamma_set(g.rep).gamma5
            herm.append(_norm(g5 @ h @ g5 - h_dag, axis=(-2, -1)))
        eig.append(observables.energy_eigencheck(g, w, h))
    return _results("observables", tol, velocity_duality=dual, velocity_closed_form=vclosed,
                    four_velocity=vbar, spin_four_vector=sbar, constraints=cons,
                    hamiltonian_adjoint=herm, energy_eigencheck=eig)


# -------------------------------------------------------------- symmetries

@functools.cache
def _symmetry_identities() -> tuple[tuple, ...]:
    """The residuals of the symmetry checks that use no draw, unitarity and
    the PCT product, and the report's note of the bradyonic PCT phase in the
    standard basis, computed once, since `discrete_operator` reads its
    matrices from `gamma_set`, whose tables do not change between calls."""
    unit, pct, notes = [], [], []
    pt, brad = Species.PSEUDOTACHYON, Species.BRADYON
    inversion = symmetries.DiscreteKind.FOUR_INVERSION
    for rep in (Representation.STANDARD, Representation.WEYL):
        for species in (brad, pt):
            for kind in symmetries.DiscreteKind:
                u = symmetries.discrete_operator(kind, species, rep)
                unit.append(dagger(u) @ u - np.eye(4))
        pct.append(symmetries.pct_product(pt, rep)
                   - symmetries.discrete_operator(inversion, pt, rep))
        phase = symmetries.pct_phase(brad, rep)
        pct.append(symmetries.pct_product(brad, rep)
                   - phase * symmetries.discrete_operator(inversion, brad, rep))
        if rep is Representation.STANDARD:
            notes.append(f"bradyonic PCT phase relative to 4-inversion: "
                         f"{phase.real:+.12f}{phase.imag:+.12f}i")
    unit, pct = (tuple(_norm(np.array(d), axis=(-2, -1))) for d in (unit, pct))
    return unit, pct, tuple(notes)


def symmetry_checks(seed: int, trials: int, tol: float) -> list[CheckResult]:
    _check_arguments(trials, tol)
    unit, pct, _ = _symmetry_identities()

    u_z, u_phi, u_zeta, u_zeta2, *u_gen = _uniforms(seed, "symmetries", _INPUTS, trials, 20)
    axes = _directions(u_z, u_phi)
    zetas, zetas2 = _scaled(u_zeta, -2.0, 2.0), _scaled(u_zeta2, -1.0, 1.0)
    a = _scaled(np.stack(u_gen, axis=1).reshape(-1, 4, 4), -1e-3, 1e-3)
    generators = a - np.swapaxes(a, 1, 2)

    inter, bcov, g5comm, structure = [], [], [], []
    for g in random_spec(seed, "symmetries", trials):
        w = spinors.group_amplitudes(g)
        inter.append(symmetries.discrete_images(g, w)[1])
        n, z, z2 = axes[g.rows], zetas[g.rows], zetas2[g.rows]
        bcov.append(symmetries.apply_boost(g, n, z, w)[1])
        # S(zeta), S(zeta2) and S(zeta + zeta2) of every row, in one call
        s_fin, s2, s12 = symmetries.lorentz_boost_spinor(n, np.array([z, z2, z + z2]), g.rep)
        for s in (s_fin, symmetries.lorentz_generator(generators[g.rows], g.rep)):
            s_g5_minus_g5_s = (s.reshape(-1, 16) @ _gamma5_commutator(g.rep)).reshape(s.shape)
            g5comm.append(_norm(s_g5_minus_g5_s, axis=(-2, -1)))
        structure.append(_norm(s_fin @ s2 - s12, axis=(-2, -1)))
        structure.append(np.abs(np.linalg.det(s_fin) - 1.0))
    return _results("symmetries", tol, unitarity=unit, pct_product=pct, intertwining=inter,
                    boost_covariance=bcov, gamma5_commutation=g5comm, boost_structure=structure)


# --------------------------------------------------------------- aggregate

def run_all(seed: int, trials: int, tol: float) -> VerificationReport:
    """Every invariant group of every module, one seeded pass."""
    checks = (clifford_checks(seed, trials, tol)
              + kinematics_checks(seed, trials, tol)
              + spinor_checks(seed, trials, tol)
              + observable_checks(seed, trials, tol)
              + symmetry_checks(seed, trials, tol))
    return VerificationReport(seed=seed, trials=trials, tol=tol,
                              checks=tuple(checks), notes=_symmetry_identities()[2])


def format_report(report: VerificationReport) -> str:
    lines = [f"seed {report.seed}  trials {report.trials}  tol {report.tol:.3e}"]
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{c.name:<36s} max residual {c.max_residual:.3e}  {status}")
    lines.extend(report.notes)
    n_pass = sum(c.passed for c in report.checks)
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"RESULT: {verdict} ({n_pass}/{len(report.checks)} checks)")
    return "\n".join(lines)
