import json
import math

import numpy as np
import pytest

from rawbench import cli, fit, formats, isp, pool
from rawbench.errors import DimensionError, ParameterError
from rawbench.fit import (FIT_DIMS, LUT_DIMS, FitConfig, LossEvaluator,
                          image_loss, vector_to_params)
from rawbench.raw import demosaic_bilinear

from conftest import random_bayer, random_rgb

# search-vector slots: 0 gain, 1-2 radii, 3 sigma, 4 rho, 5-13 CCM, 14-16 LUT
RHO_DIM = 4


def reference_loss(base, target, vector, config):
    params = vector_to_params(vector, config.fit_lut)
    out = isp.develop_linear(base, params, kernel_size=config.kernel_size)
    return image_loss(out, target, config.loss)


class UncachedEvaluator:
    """The evaluation a fit made before LossEvaluator: one full develop."""

    def __init__(self, base, target, config):
        self.base, self.target, self.config = base, target, config
        self.best, self.best_vector = np.inf, None
        self.trace = []

    def __call__(self, vector):
        vector = np.array(vector, dtype=np.float64)
        loss = reference_loss(self.base, self.target, vector, self.config)
        self.trace.append((vector, loss))
        if loss < self.best:
            self.best, self.best_vector = loss, vector
        return loss


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(fit, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fit, name, counted)
    return calls


@pytest.fixture
def scene():
    base = demosaic_bilinear(random_bayer(24, 20, seed=5))
    target = random_rgb(24, 20, seed=9)
    return base, target


def candidate_sequence(dims):
    """Vectors stepping from the origin along single and mixed axes, so the
    incumbent moves and candidates hit the W cache, only the D1 cache, or
    neither."""
    rng = np.random.default_rng(3)
    x = np.zeros(dims)
    out = [x.copy()]
    for d in [0, 5, 9, RHO_DIM, 1, 0, RHO_DIM, 13, 3, 2, 6] + list(range(FIT_DIMS, dims)):
        for step in (0.3, -0.2):
            cand = x.copy()
            cand[d] += step
            out.append(cand)
        x = out[-2]
    out.append(0.2 * rng.standard_normal(dims))
    return out


def expected_reuse(incumbent, cand, fit_lut):
    """Which cached part of the incumbent a candidate can reuse: "w" when
    only g, the CCM or the LUT bias differ, "d1" when rho differs too, and
    "none" when r1, r2 or sigma differ (or there is no incumbent yet)."""
    if incumbent is None:
        return "none"
    a, b = vector_to_params(incumbent, fit_lut), vector_to_params(cand, fit_lut)
    if (a.r1, a.r2, a.sigma) != (b.r1, b.r2, b.sigma):
        return "none"
    return "w" if a.rho == b.rho else "d1"


class TestLossEvaluator:
    @pytest.mark.parametrize("loss", ["l1", "l2"])
    @pytest.mark.parametrize("fit_lut", [False, True])
    def test_matches_develop_and_image_loss(self, scene, monkeypatch, loss,
                                            fit_lut):
        base, target = scene
        config = FitConfig(loss=loss, fit_lut=fit_lut, kernel_size=7)
        dims = FIT_DIMS + (LUT_DIMS if fit_lut else 0)
        blurs = count_calls(monkeypatch, "gain_denoise_sharpen")
        balances = count_calls(monkeypatch, "sog_white_balance")
        evaluator = LossEvaluator(base, target, config)
        seen = set()
        for vector in candidate_sequence(dims):
            reuse = expected_reuse(evaluator.best_vector, vector, fit_lut)
            seen.add(reuse)
            before = (len(blurs), len(balances))
            got = evaluator(vector)
            want = reference_loss(base, target, vector, config)
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
            cost = (len(blurs) - before[0], len(balances) - before[1])
            assert cost == {"none": (1, 1), "d1": (0, 1), "w": (0, 0)}[reuse]
        assert seen == {"none", "d1", "w"}

    def test_l2_moments_stay_near_zero_at_an_exact_fit(self):
        # the expanded square cancels to a few ulps of the target's mean
        # square, and never reports a negative loss
        base = demosaic_bilinear(random_bayer(64, 64, seed=21))
        vector = np.zeros(FIT_DIMS)
        vector[[0, 4, 6]] = 0.3, 1.0, 0.05
        target = isp.develop_linear(base, vector_to_params(vector),
                                    kernel_size=13)
        loss = LossEvaluator(base, target, FitConfig(loss="l2"))(vector)
        assert 0.0 <= loss <= 1e-14

    def test_best_tracks_the_first_minimum(self, scene):
        base, target = scene
        evaluator = LossEvaluator(base, target, FitConfig(kernel_size=5))
        losses = [evaluator(v) for v in candidate_sequence(FIT_DIMS)]
        first = int(np.argmin(losses))
        assert evaluator.best == losses[first]
        np.testing.assert_array_equal(evaluator.best_vector,
                                      candidate_sequence(FIT_DIMS)[first])

    @pytest.mark.parametrize("loss", ["l1", "l2"])
    def test_score_changes_nothing_and_call_records_its_loss(self, scene, loss):
        base, target = scene
        evaluator = LossEvaluator(base, target, FitConfig(loss=loss, kernel_size=5))
        candidates = candidate_sequence(FIT_DIMS)
        for vector in candidates[:6]:
            evaluator(vector)
        held = evaluator._incumbent

        def state():
            basis = held.basis if loss == "l2" else (held.basis,)
            return [evaluator.best, evaluator.best_vector, held.denoised.data,
                    *basis, *(x for pair in evaluator.trace for x in pair)]

        before = [np.copy(x) for x in state()]
        scores = [evaluator.score(v)[0] for v in candidates[6:]]
        assert evaluator._incumbent is held
        after = state()
        assert len(after) == len(before)
        for got, want in zip(after, before):
            np.testing.assert_array_equal(got, want)
        assert evaluator(candidates[6]) == scores[0]
        np.testing.assert_array_equal(evaluator.trace[-1][0], candidates[6])
        assert evaluator.trace[-1][1] == scores[0]

    @pytest.mark.parametrize("loss", ["l1", "l2"])
    def test_pool_scores_equal_a_sequential_loop(self, scene, monkeypatch, loss):
        # the candidates of one evolution generation, scored from one
        # incumbent on two threads, give the bits of one thread
        base, target = scene
        evaluator = LossEvaluator(base, target, FitConfig(loss=loss, kernel_size=5))
        candidates = candidate_sequence(FIT_DIMS)
        for vector in candidates[:4]:
            evaluator(vector)
        monkeypatch.setattr(pool, "WORKERS", 2)
        pooled = pool.parallel_map(evaluator.score, candidates)
        looped = [evaluator.score(v) for v in candidates]
        assert [value for value, _ in pooled] == [value for value, _ in looped]

    def test_overflowing_gain_raises_parameter_error(self, scene):
        base, target = scene
        vector = np.zeros(FIT_DIMS)
        vector[0] = 1e308                 # g * (1 + 1) overflows the CCM scale
        vector[5] = 1.0
        config = FitConfig()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ParameterError, match="non-finite"):
                LossEvaluator(base, target, config)(vector)
            with pytest.raises(ParameterError):
                reference_loss(base, target, vector, config)

    def test_nan_vector_raises_parameter_error(self, scene):
        base, target = scene
        vector = np.zeros(FIT_DIMS)
        vector[7] = np.nan
        with pytest.raises(ParameterError):
            LossEvaluator(base, target, FitConfig())(vector)

    def test_shape_mismatch_is_a_dimension_error(self, scene):
        base, _ = scene
        with pytest.raises(DimensionError):
            LossEvaluator(base, random_rgb(8, 8), FitConfig())


class TestVectorToParams:
    def test_zero_vector_normal(self):
        p = vector_to_params(np.zeros(FIT_DIMS))
        assert (p.g, p.r1, p.r2, p.sigma, p.rho) == (1.0, 3.0, 2.0, 0.5, 1.0)
        assert p.theta == 0.0
        assert np.array_equal(p.ccm, np.eye(3))

    def test_rho_relu_floor(self):
        vector = np.zeros(FIT_DIMS)
        vector[4] = -7.0
        assert vector_to_params(vector).rho == 1.0

    def test_radius_floor(self):
        vector = np.zeros(FIT_DIMS)
        vector[1], vector[2] = -10.0, -10.0
        p = vector_to_params(vector)
        assert p.r1 == 0.1 and p.r2 == 0.1

    def test_sigma_strictly_inside(self):
        vector = np.zeros(FIT_DIMS)
        vector[3] = 80.0
        assert 0.0 < vector_to_params(vector).sigma < 1.0

    @pytest.mark.parametrize("logit, sigma", [
        (-1000.0, 1e-12), (-710.0, 1e-12), (1000.0, 1.0 - 1e-12)])
    def test_far_sigma_logit_hits_the_clamp(self, logit, sigma):
        # exp(-logit) overflows a float below a logit of about -709
        vector = np.zeros(FIT_DIMS)
        vector[3] = logit
        assert vector_to_params(vector).sigma == sigma

    def test_wrong_length(self):
        for n, fit_lut in ((FIT_DIMS - 1, False), (FIT_DIMS + 1, False),
                           (FIT_DIMS + LUT_DIMS - 1, True)):
            with pytest.raises(ParameterError, match="length"):
                vector_to_params(np.zeros(n), fit_lut)


class TestFitAgainstUncachedLoop:
    @pytest.mark.parametrize("conf", [
        {"optimizer": "coordinate"},
        {"optimizer": "coordinate", "loss": "l2", "fit_lut": True},
        {"optimizer": "evolution", "seed": 11},
        {"optimizer": "evolution", "loss": "l2", "seed": 4, "population": 4},
    ])
    def test_same_params_and_trace(self, tmp_path, monkeypatch, conf):
        bayer = random_bayer(32, 32, seed=8)
        truth = isp.IspParams(g=1.2, r1=2.5, r2=1.5, theta=0.0, sigma=0.7,
                              rho=1.8, ccm=np.eye(3) + 0.05)
        target = isp.develop(bayer, truth, kernel_size=9)
        config = FitConfig(budget=60, kernel_size=9, **conf)
        params, trace = fit.fit_isp_params(bayer, target, config)
        monkeypatch.setattr(fit, "LossEvaluator", UncachedEvaluator)
        ref_params, ref_trace = fit.fit_isp_params(bayer, target, config)
        formats.write_isp_params(params, tmp_path / "cached.json")
        formats.write_isp_params(ref_params, tmp_path / "uncached.json")
        assert ((tmp_path / "cached.json").read_bytes()
                == (tmp_path / "uncached.json").read_bytes())
        assert len(trace) == len(ref_trace) == 60
        for (v, loss), (ref_v, ref_loss) in zip(trace, ref_trace):
            np.testing.assert_array_equal(v, ref_v)
            assert math.isclose(loss, ref_loss, rel_tol=1e-12)


class TestSpatialCacheGuard:
    """Counts, not timings: a silent cache miss fails here."""

    def _fit(self, monkeypatch, optimizer):
        blurs = count_calls(monkeypatch, "gain_denoise_sharpen")
        bayer = random_bayer(16, 16, seed=2)
        target = random_rgb(16, 16, seed=6)
        config = FitConfig(optimizer=optimizer, budget=52, seed=3)
        _, trace = fit.fit_isp_params(bayer, target, config)
        return len(blurs), len(trace)

    def test_coordinate_fit_blurs_at_most_every_other_evaluation(self, monkeypatch):
        blurs, evaluations = self._fit(monkeypatch, "coordinate")
        assert evaluations == 52
        assert 0 < blurs <= evaluations // 2

    def test_evolution_fit_blurs_once_per_evaluation(self, monkeypatch):
        blurs, evaluations = self._fit(monkeypatch, "evolution")
        assert evaluations == 52
        assert blurs == evaluations


class TestEvaluatorOwnsTheSearch:
    """The optimizers count and pick through the evaluator's trace."""

    @pytest.mark.parametrize("optimizer", ["coordinate", "evolution"])
    @pytest.mark.parametrize("budget", [1, FitConfig().population + 1, 52])
    def test_trace_fills_the_budget_and_names_the_result(self, tmp_path,
                                                          optimizer, budget):
        bayer = random_bayer(16, 16, seed=2)
        target = random_rgb(16, 16, seed=6)
        config = FitConfig(optimizer=optimizer, budget=budget, seed=3)
        params, trace = fit.fit_isp_params(bayer, target, config)
        assert len(trace) == budget
        losses = [loss for _, loss in trace]
        first = trace[losses.index(min(losses))][0]
        formats.write_isp_params(params, tmp_path / "returned.json")
        formats.write_isp_params(vector_to_params(first), tmp_path / "first.json")
        assert ((tmp_path / "returned.json").read_bytes()
                == (tmp_path / "first.json").read_bytes())


def test_fit_recovers_known_parameters():
    # Gain, white balance and CCM scale are degenerate, so the check is on
    # the image loss. On this scene the best loss is 0.050 after 200
    # evaluations, 0.0018 after 1000 (r1 2.94, r2 1.98, sigma 0.733) and
    # 1.2e-6 after 3000: the shortfall at small budgets is the budget's.
    bayer = random_bayer(64, 64, seed=21)
    truth = isp.IspParams(g=1.3, r1=3.0, r2=2.0, theta=0.0, sigma=0.73,
                          rho=2.0, ccm=np.eye(3))
    config = FitConfig(loss="l1", optimizer="coordinate", budget=1000)
    target = isp.develop(bayer, truth, kernel_size=config.kernel_size)
    start = image_loss(isp.develop(bayer, vector_to_params(np.zeros(FIT_DIMS)),
                                   kernel_size=config.kernel_size), target)
    params, trace = fit.fit_isp_params(bayer, target, config)
    best = min(loss for _, loss in trace)
    assert start > 0.1
    assert best <= 0.005
    refit = image_loss(isp.develop(bayer, params, kernel_size=config.kernel_size),
                       target)
    assert math.isclose(refit, best, rel_tol=1e-9)


class TestFitCli:
    @pytest.fixture
    def inputs(self, tmp_path):
        raw_path, target_path = tmp_path / "scene.pgm", tmp_path / "target.ppm"
        bayer = random_bayer(32, 32, seed=14)
        formats.write_raw(bayer, raw_path)
        formats.write_rgb(random_rgb(32, 32, seed=15), target_path)
        return raw_path, target_path

    def _config(self, tmp_path, **fields):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps({"schema_version": formats.SCHEMA_VERSION,
                                    **fields}))
        return path

    def test_fit_is_deterministic(self, tmp_path, inputs):
        raw_path, target_path = inputs
        config = self._config(tmp_path, budget=40, optimizer="evolution",
                              seed=9, fit_lut=True)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert cli.main(["fit", "--raw", str(raw_path), "--target",
                             str(target_path), "--fit-config", str(config),
                             "--out", str(out)]) == cli.EXIT_OK
        for name in ("params.json", "trace.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_far_negative_sigma_logit_bounds_run(self, tmp_path, inputs):
        # the sigma logit's exp would overflow here without its clamp
        raw_path, target_path = inputs
        bounds = [list(b) for b in fit.DEFAULT_BOUNDS]
        bounds[3] = [-1000, -900]
        config = self._config(tmp_path, budget=3, bounds=bounds)
        assert cli.main(["fit", "--raw", str(raw_path), "--target",
                         str(target_path), "--fit-config", str(config),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK

    @pytest.mark.parametrize("fields", [
        {"init_step": -1},
        {"init_step": float("nan")},
        {"init_step": 1.5},
        {"budget": "50"},
        {"seed": "x"},
        {"population": 2.5},
        {"budget": True},
        {"fit_lut": "yes"},
        {"kernel_size": 12},
        {"kernel_size": -1},
        {"bounds": 5},
        {"bounds": [["a", 1]] * FIT_DIMS},
        {"bounds": [[0, float("nan")]] * FIT_DIMS},
        {"seed": -5},
        {"seed": 2**64},  # would replay seed 0's stream
        {"seed": 10**400},
    ])
    def test_bad_config_exits_format(self, tmp_path, inputs, capsys, fields):
        raw_path, target_path = inputs
        out = tmp_path / "out"
        code = cli.main(["fit", "--raw", str(raw_path), "--target",
                         str(target_path), "--fit-config",
                         str(self._config(tmp_path, **fields)), "--out", str(out)])
        assert code == cli.EXIT_FORMAT
        assert "E_SCHEMA_VALUE" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("kwargs", [
    {"budget": 1.0}, {"seed": None}, {"kernel_size": 0}, {"init_step": 0.0},
    {"init_step": True}, {"fit_lut": 1},
])
def test_fit_config_rejects_bad_types(kwargs):
    with pytest.raises(ParameterError):
        FitConfig(**kwargs)


def test_fit_config_accepts_numpy_scalars():
    config = FitConfig(budget=np.int64(5), seed=np.int32(2),
                       init_step=np.float64(0.5), kernel_size=np.int64(3))
    assert config.budget == 5 and config.init_step == 0.5


def test_evolution_fit_with_a_numpy_seed_is_the_int_seed_fit():
    # a numpy seed reached the stream's key unconverted and overflowed there;
    # the returned params are the trace's best vector
    bayer = random_bayer(16, 16, seed=2)
    target = random_rgb(16, 16, seed=6)
    (_, trace), (_, int_trace) = [fit.fit_isp_params(bayer, target, FitConfig(
        optimizer="evolution", budget=24, seed=seed)) for seed in (np.int64(2), 2)]
    assert len(trace) == len(int_trace) == 24
    for (v, loss), (int_v, int_loss) in zip(trace, int_trace):
        assert v.tobytes() == int_v.tobytes() and loss == int_loss


def test_fit_config_accepts_the_largest_64_bit_seed():
    assert FitConfig(seed=2**64 - 1).seed == 2**64 - 1
    assert FitConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1

