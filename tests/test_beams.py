import numpy as np
import pytest

from tdxray import beams
from tdxray.beams import (SIGMA, beam_evaluate, beam_psi, build_beam,
                          cutoff_build, gaussian_concentration,
                          residual_scaling, tube_radii, wave_operator_fd)
from tdxray.conformal import bump_factor, constant_factor
from tdxray.errors import (Inadmissible, QuadratureNotConverged,
                           StencilUnderResolved)
from tdxray.fields import bump_profile
from tdxray.geometry import ball, make_ray, perp_frame


def phase_hessian(beam, k):
    """M = N Y^-1 at node k."""
    return beam.N[k] @ np.linalg.inv(beam.Y[k])


def amplitude_closed_form(beam):
    """(det Y(t0)/det Y(t))^(1/2) (c(t0,x0)/c(t,x))^(1/4) with the
    square-root branch tracked continuously along the curve.

    Coincides with the transport amplitude wherever c is constant along
    the ray.
    """
    det = np.array([np.linalg.det(beam.Y[k])
                    for k in range(len(beam.times))])
    c0 = float(beam.c(beam.t0, beam.xtilde[0][None, :])[0])
    cs = np.array([float(beam.c(beam.times[k], beam.xtilde[k][None, :])[0])
                   for k in range(len(beam.times))])
    ratio = np.linalg.det(beam.Y[0]) / det
    root = np.empty_like(ratio)
    prev = 1.0 + 0.0j
    for k, r in enumerate(ratio):
        cand = np.sqrt(r)
        root[k] = cand if abs(cand - prev) <= abs(-cand - prev) else -cand
        prev = root[k]
    return root * (c0 / cs) ** 0.25


def residual_probe_set(beam, lam, max_offset, n_times=7,
                       radii=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5)):
    """Space-time probes covering the Gaussian core at scale 1/sqrt(lam),
    offsets capped at ``max_offset`` (the cutoff tube radius): outside its
    tube the beam is zero by construction."""
    tsel = np.linspace(0.08, 0.92, n_times) * (beam.t_exit - beam.t0) \
        + beam.t0
    probes = []
    for t in tsel:
        st = beam.state_at(t)
        m = max(np.min(np.linalg.eigvalsh(st["M"].imag)), 1e-6)
        phat = st["p"] / np.linalg.norm(st["p"])
        if beam.dim == 2:
            perp = perp_frame(phat)[0]
            dirs = [phat, perp, (phat + perp) / np.sqrt(2),
                    (phat - perp) / np.sqrt(2), -phat]
        else:
            dirs = [phat] + [e for e in np.eye(beam.dim)]
        pts = [st["x"]]
        for r in radii[1:]:
            scale = min(r / np.sqrt(lam * m), max_offset)
            pts.extend(st["x"] + scale * d for d in dirs)
        probes.append((t, np.array(pts)))
    return probes


@pytest.fixture(scope="module")
def free_beam():
    body = ball()
    ray = make_ray(body, (-1.0, 0.0), (1.0, 0.0))
    c1 = constant_factor(1.0)
    return body, ray, c1, build_beam(c1, body, ray, dt=2e-3)


@pytest.fixture(scope="module")
def curved_beam():
    body = ball()
    ray = make_ray(body, (-1.0, 0.0), (0.9, np.sqrt(1 - 0.81)))
    c = bump_factor(0.05, (0.1, 0.0), 0.6)
    return body, ray, c, build_beam(c, body, ray, dt=2e-3)


class TestBuildBeam:
    def test_free_space_closed_forms(self, free_beam):
        body, ray, c1, beam = free_beam
        # straight line, unit normalisation, amplitude (1 - i t)^(-1/2)
        chord = ray.x[None, :] + beam.times[:, None] * ray.omega[None, :]
        assert np.max(np.linalg.norm(beam.xtilde - chord, axis=1)) < 1e-10
        assert beam.a0[0] == pytest.approx(1.0)
        ref = (1.0 - 1j * beam.times) ** (-0.5)
        assert np.max(np.abs(beam.a0 - ref)) < 1e-10
        # M diagonal in (ray, transverse) frame: i and i/(1 - i t)
        for k in (0, len(beam.times) // 2, len(beam.times) - 1):
            M = phase_hessian(beam, k)
            t = beam.times[k]
            assert M[0, 0] == pytest.approx(1j, abs=1e-10)
            assert M[1, 1] == pytest.approx(1j / (1 - 1j * t), abs=1e-10)
            assert abs(M[0, 1]) < 1e-12

    def test_normalisation_conditions(self, curved_beam):
        body, ray, c, beam = curved_beam
        # a0 = 1 and grad psi = -omega at the launch point (c = 1 there)
        assert beam.a0[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(beam.omega[0], -ray.omega, atol=1e-12)

    def test_im_M_positive_and_detY_nonzero(self, curved_beam):
        _, _, _, beam = curved_beam
        assert np.min(beam.min_eig_imag_M()) > 0.0
        dets = [abs(np.linalg.det(beam.Y[k]))
                for k in range(len(beam.times))]
        assert min(dets) > 1e-3

    def test_h_conserved_time_independent(self, curved_beam):
        _, _, c, beam = curved_beam
        hs = []
        for k in range(len(beam.times)):
            cv = float(c(beam.times[k], beam.xtilde[k][None, :])[0])
            hs.append(np.sqrt(cv) * np.linalg.norm(beam.omega[k]))
        hs = np.array(hs)
        assert np.max(np.abs(hs - hs[0])) < 1e-6

    def test_phase_constant_on_curve(self, curved_beam):
        _, _, _, beam = curved_beam
        for t in np.linspace(0.05, beam.t_exit - 0.05, 9):
            st = beam.state_at(t)
            psi = beam_psi(st, st["x"][None, :])[0]
            assert abs(psi) < 1e-8

    def test_amplitude_closed_form_free_space(self, free_beam):
        _, _, _, beam = free_beam
        assert np.max(np.abs(beam.a0 - amplitude_closed_form(beam))) < 1e-10

    def test_amplitude_closed_form_diverges_for_curved_c(self, curved_beam):
        # the quarter-power determinant form solves the transport equation
        # only where c is constant along the ray; recorded as a diagnostic
        _, _, _, beam = curved_beam
        dev = np.max(np.abs(beam.a0 - amplitude_closed_form(beam)))
        assert 1e-8 < dev < 0.05

    def test_inadmissible_factor_rejected(self):
        body = ball()
        ray = make_ray(body, (-1.0, 0.0), (1.0, 0.0))
        bad = bump_factor(-0.9, (0.0, 0.0), 0.5)
        with pytest.raises(Inadmissible):
            build_beam(bad, body, ray)

    def test_nonpositive_step_rejected(self):
        # the march refuses it; a zero step used to give a two-node beam
        body = ball()
        ray = make_ray(body, (-1.0, 0.0), (1.0, 0.0))
        for dt in (0.0, -2e-3):
            with pytest.raises(ValueError, match="dt must be positive"):
                build_beam(constant_factor(1.0), body, ray, dt=dt)

    def test_csv_schema(self, free_beam, tmp_path):
        _, _, _, beam = free_beam
        p = tmp_path / "beam.csv"
        beam.write_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == ("t,xtilde1,xtilde2,omega1,omega2,a0_re,a0_im,"
                            "min_eig_ImM,detY_re,detY_im")
        assert len(lines) == 1 + len(beam.times)

    def test_csv_diagnostics_match_node_loop(self, curved_beam, tmp_path):
        # the stacked det Y and min eig Im M must write the bytes that one
        # evaluation per node writes
        _, _, _, beam = curved_beam
        eig = [np.min(np.linalg.eigvalsh(phase_hessian(beam, k).imag))
               for k in range(len(beam.times))]
        det = [np.linalg.det(beam.Y[k]) for k in range(len(beam.times))]
        assert np.array_equal(beam.min_eig_imag_M(), eig)
        p = tmp_path / "beam.csv"
        beam.write_csv(p)
        rows = [line.split(",")[-3:] for line in
                p.read_text().splitlines()[1:]]
        assert rows == [[repr(float(e)), repr(float(d.real)),
                         repr(float(d.imag))] for e, d in zip(eig, det)]


class TestEvaluate:
    def test_on_curve_magnitude(self, free_beam):
        _, _, _, beam = free_beam
        t = 1.0
        st = beam.state_at(t)
        val = beam_evaluate(64.0, st, st["x"][None, :])[0]
        want = (64.0 / np.pi) ** 0.5 * abs(st["a0"])
        assert abs(val) == pytest.approx(want, rel=1e-12)

    def test_gaussian_decay_bound(self, free_beam, rng):
        _, _, _, beam = free_beam
        lam = 48.0
        t = 0.8
        st = beam.state_at(t)
        margin = float(np.min(np.linalg.eigvalsh(st["M"].imag)))
        on = abs(beam_evaluate(lam, st, st["x"][None, :])[0])
        for _ in range(50):
            d = rng.uniform(-0.5, 0.5, 2)
            off = abs(beam_evaluate(lam, st, (st["x"] + d)[None, :])[0])
            bound = on * np.exp(-lam * margin * float(d @ d) / 2.0)
            assert off <= bound * (1.0 + 1e-12)

    def test_l2_mass_lambda_independent(self, free_beam):
        _, _, _, beam = free_beam
        t = 1.0
        st = beam.state_at(t)
        masses = []
        for lam in (32.0, 64.0, 128.0):
            r = 6.0 / np.sqrt(lam)
            ax = np.linspace(-r, r, 400)
            mesh = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
            vals = beam_evaluate(lam, st, st["x"] + mesh)
            masses.append(np.sum(np.abs(vals) ** 2) * (ax[1] - ax[0]) ** 2)
        closed = abs(st["a0"]) ** 2 / np.sqrt(
            np.linalg.det(st["M"].imag))
        for m in masses:
            assert m == pytest.approx(masses[0], rel=0.05)
            assert m == pytest.approx(closed, rel=0.05)


class TestResidual:
    def test_stencil_weights_on_plane_wave(self):
        # independent check of the finite-difference machinery: the exact
        # plane wave a = 1, psi = x.e - t is annihilated by the operator
        lam = 64.0
        e = np.array([0.6, 0.8])

        def U(t, x):
            return np.exp(1j * lam * (x @ e - t))

        h = 0.5 * lam ** (-1.5)
        w2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
        x0 = np.array([0.1, -0.2])
        utt = sum(w * U(0.5 + o * h, x0)
                  for w, o in zip(w2, (-2, -1, 0, 1, 2))) / h**2
        lap = 0.0
        for a in range(2):
            ee = np.zeros(2)
            ee[a] = h
            lap += sum(w * U(0.5, x0 + o * ee)
                       for w, o in zip(w2, (-2, -1, 0, 1, 2))) / h**2
        # exact solution: box U = 0 up to stencil truncation
        assert abs(utt - lap) < 1e-4 * lam**2 * abs(U(0.5, x0))

    def test_on_curve_rate_is_prefactor_only(self, free_beam):
        body, ray, c1, beam = free_beam
        vals = []
        for lam in (32.0, 128.0):
            h_fd = 0.5 * lam ** (-1.5)
            st = beam.state_at(1.0)
            vals.append(abs(wave_operator_fd(beam, lam, 1.0,
                                             st["x"][None, :], h_fd)[0])
                        / lam ** 0.5)
        assert vals[1] == pytest.approx(vals[0], rel=0.02)

    def test_l2_slope_free_space(self, free_beam):
        body, _, _, beam = free_beam
        res = residual_scaling(beam, body, [16, 32, 64, 128])
        assert res["slope"] <= 0.75

    def test_sup_measure_carries_extra_half_power(self, free_beam):
        # the pointwise sup over core probes, for a beam with quadratic
        # phase and curve-constant amplitude, carries an extra sqrt(lambda)
        # from the cubic eikonal and linear transport remainders, so its
        # exponent runs near n/4 + 1/2
        _, _, _, beam = free_beam
        lams = [16.0, 32.0, 64.0, 128.0]
        tube = tube_radii(beam.dim)[0]

        def sup_at(lam, h_fd):
            return max(float(np.max(np.abs(wave_operator_fd(
                beam, lam, t, pts, h_fd))))
                for t, pts in residual_probe_set(beam, lam, tube))

        sups = [sup_at(lam, 0.5 * lam ** (-1.5)) for lam in lams]
        # the stencil is resolved: halving its step moves the sup < 5%
        half = sup_at(lams[-1], 0.25 * lams[-1] ** (-1.5))
        assert abs(half - sups[-1]) <= 0.05 * sups[-1]
        slope = float(np.polyfit(np.log(lams), np.log(sups), 1)[0])
        assert 0.8 <= slope <= 1.15

    def test_under_resolved_stencil_rejected(self, free_beam, monkeypatch):
        body, _, _, beam = free_beam
        monkeypatch.setattr(beams, "STENCIL_SCALE", 60.0)
        with pytest.raises(StencilUnderResolved):
            residual_scaling(beam, body, [16, 32, 64, 256])


class TestCutoff:
    def test_plateau_and_support(self, free_beam):
        _, _, _, beam = free_beam
        chi = cutoff_build(beam)
        t = 1.0
        st = beam.state_at(t)
        assert chi(t, st["x"][None, :])[0] == 1.0
        far = st["x"] + 2.0 * tube_radii(2)[1] * np.array([0.0, 1.0])
        assert chi(t, far[None, :])[0] == 0.0

    def test_derivative_scaling(self, free_beam, monkeypatch):
        _, _, _, beam = free_beam
        sups = {}
        monkeypatch.setattr(beams, "ALPHA", 1.5)
        for eps1 in (1e-2, 1e-3, 1e-4):
            monkeypatch.setattr(beams, "EPS1", eps1)
            chi = cutoff_build(beam)
            t = 1.0
            st = beam.state_at(t)
            a1, a2 = tube_radii(2)
            rs = np.linspace(0.9 * a1, 1.1 * a2, 300)
            pts = st["x"] + rs[:, None] * np.array([0.0, 1.0])
            vals = chi(np.full(rs.shape, t), pts)
            sups[eps1] = np.max(np.abs(np.gradient(vals, rs)))
        alpha = 1.5
        C = sups[1e-2] / (1e-2) ** (-1.0 / (2 * alpha))
        for eps1 in (1e-3, 1e-4):
            assert sups[eps1] <= C * eps1 ** (-1.0 / (2 * alpha)) * 1.05

    def test_second_derivative_budget(self, free_beam, monkeypatch):
        _, _, _, beam = free_beam
        alpha = 1.5
        monkeypatch.setattr(beams, "ALPHA", alpha)
        for eps1 in (1e-2, 1e-3):
            monkeypatch.setattr(beams, "EPS1", eps1)
            chi = cutoff_build(beam)
            t = 1.0
            st = beam.state_at(t)
            a1, a2 = tube_radii(2)
            rs = np.linspace(0.9 * a1, 1.1 * a2, 400)
            pts = st["x"] + rs[:, None] * np.array([0.0, 1.0])
            vals = chi(np.full(rs.shape, t), pts)
            d2 = np.gradient(np.gradient(vals, rs), rs)
            # generous constant: the contract is the eps1 power
            assert np.max(np.abs(d2)) <= 200.0 * eps1 ** (-2.0 / (2 * alpha))


class TestConcentration:
    def test_exact_normalisation_without_cutoff(self, free_beam,
                                                monkeypatch):
        _, _, _, beam = free_beam

        def one(t, x):
            return np.ones(np.broadcast(t, x[..., 0]).shape)

        monkeypatch.setattr(beams, "cutoff_build", lambda beam: one)
        out = gaussian_concentration(one, beam, [64.0], t_eval=1.0)
        assert out["rows"][0]["error"] < 1e-9

    def test_linear_h_error_small(self, free_beam):
        _, _, _, beam = free_beam

        def lin(t, x):
            return 0.3 + 0.7 * np.asarray(x)[..., 0]

        out = gaussian_concentration(lin, beam, [64.0, 256.0], t_eval=1.0)
        for row in out["rows"]:
            assert row["error"] <= 1.0 / np.sqrt(row["lam"])

    def test_bump_decay_exponent(self, free_beam):
        _, _, _, beam = free_beam

        def h(t, x):
            d2 = np.sum((np.asarray(x) - np.array([0.3, 0.1])) ** 2, axis=-1)
            return bump_profile(d2 / 0.8 ** 2)

        out = gaussian_concentration(h, beam, [32, 64, 128, 256, 512],
                                     t_eval=1.25)
        assert out["decay_exponent"] <= SIGMA - 0.5 + 0.1

    def test_unresolved_gaussian_raises(self, free_beam):
        # at lambda 1e5 the Gaussian is narrower than the node spacing; an
        # even node count hid it from the halving check on this symmetric
        # integrand (the value came out 0.309 against h(x(t)) = 0.98)
        _, _, _, beam = free_beam

        def h(t, x):
            d2 = np.sum((np.asarray(x) - np.array([0.3, 0.1])) ** 2, axis=-1)
            return bump_profile(d2 / 0.8 ** 2)

        with pytest.raises(QuadratureNotConverged):
            gaussian_concentration(h, beam, [1e5], t_eval=1.25)

    def test_erfc_discrepancy_reported(self, free_beam):
        _, _, _, beam = free_beam

        def one(t, x):
            return np.ones(np.broadcast(t, x[..., 0]).shape)

        out = gaussian_concentration(one, beam, [512.0], t_eval=1.0)
        row = out["rows"][0]
        # the minus-sign version of the additive term does not vanish
        assert row["bound_erfc_neg"] > 4.0
        assert row["bound_erfc_pos"] < row["bound_erfc_neg"]

    def test_halving_check_in_3d(self, monkeypatch):
        # the quadrature on every second node is checked in every
        # dimension; 25 nodes per axis put x(t) on a node, where a
        # Gaussian narrower than the spacing moves the coarse sum
        body = ball(dim=3)
        ray = make_ray(body, (-1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        beam = build_beam(constant_factor(1.0, dim=3), body, ray, dt=1e-2)
        patch = beams._patch
        monkeypatch.setattr(beams, "_patch", lambda center, half_width,
                            points: patch(center, half_width, 25))

        def one(t, x):
            return np.ones(np.broadcast(t, x[..., 0]).shape)

        out = gaussian_concentration(one, beam, [16.0], t_eval=1.0)
        assert out["rows"][0]["error"] < 1e-2
        with pytest.raises(QuadratureNotConverged):
            gaussian_concentration(one, beam, [512.0], t_eval=1.0)
