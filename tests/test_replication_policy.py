"""The one failure policy of the replication loop.

A replication that raises is skipped with one warning and counted in
every method's reps_failed, and the other replications are untouched;
if every replication fails, the first one's error is raised; a
configuration error, including a sampler or statistic that the
generator's data kinds rule out, is refused before any dataset is
drawn.
"""

import warnings

import numpy as np
import pytest

from fdr2d import _rng, engine, sim


def _config(**kw):
    fields = dict(
        dgp=1,
        n=40,
        m=15,
        pi=0.3,
        l=0.8,
        reps=3,
        seed=5,
        sampler=engine.ResamplePlan("residual-perm", b_count=10, seed=0),
        procedure=engine.ProcedureConfig(q=0.2, grid="quantile:20"),
    )
    fields.update(kw)
    return sim.SimConfig(**fields)


def _sampler_seed(cfg, rep):
    return _rng.substream_seed(sim.replication_seed(cfg.seed, rep), "sampler")


def _failing_build_tensor(monkeypatch, fails):
    """Make engine.build_tensor raise for the sampler seeds in ``fails``
    (every seed when ``fails`` is None); returns the seeds it was called with."""
    real = engine.build_tensor
    calls = []

    def build_tensor(dataset, plan, spec):
        calls.append(plan.seed)
        if fails is None or plan.seed in fails:
            raise RuntimeError(f"forced failure at sampler seed {plan.seed}")
        return real(dataset, plan, spec)

    monkeypatch.setattr(engine, "build_tensor", build_tensor)
    return calls


def _replication_warnings(caught):
    return [w for w in caught if "replication" in str(w.message)]


METHODS = ("mf2d-fdr", "mf1d", "bh")


def test_one_failed_replication_is_skipped_and_counted(monkeypatch):
    cfg = _config()
    clean = sim.run_method_comparison(cfg, METHODS)
    _failing_build_tensor(monkeypatch, {_sampler_seed(cfg, 1)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = sim.run_method_comparison(cfg, METHODS)
    messages = [str(w.message) for w in _replication_warnings(caught)]
    assert len(messages) == 1 and messages[0].startswith("replication 1 failed")
    for method in METHODS:
        s = table[method]
        assert (s.reps_completed, s.reps_failed) == (2, 1)
        want = clean[method]
        assert s.per_rep == [want.per_rep[0], want.per_rep[2]]
        assert s.fdr == float(np.mean(want.per_rep_fdp[[0, 2]]))
    assert all(s.reps_failed == 0 for s in clean.values())


def test_every_replication_failing_raises_the_first_error(monkeypatch):
    cfg = _config()
    _failing_build_tensor(monkeypatch, None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(RuntimeError, match=f"sampler seed {_sampler_seed(cfg, 0)}$"):
            sim.run_method_comparison(cfg, METHODS)
        with pytest.raises(RuntimeError, match="forced failure"):
            sim.run_method_comparison(cfg, ["mf2d-fdr"])["mf2d-fdr"]


@pytest.mark.parametrize(
    "methods, message",
    [
        (("mf2d-fdr", "bh"), "bh needs model-based p-values"),
        (("mf2d-fdr", "nope"), "unknown method"),
        (("mf1d", "mf1d", "bh"), "method 'mf1d' is given more than once"),
    ],
)
def test_configuration_error_refused_before_any_tensor(monkeypatch, methods, message):
    cfg = _config(statistic=engine.StatisticSpec(kind="rv"))
    calls = _failing_build_tensor(monkeypatch, set())
    with pytest.raises(ValueError, match=message):
        sim.run_method_comparison(cfg, methods)
    assert calls == []


def test_bh_with_rv_experiment_raises_instead_of_reading_zero(monkeypatch):
    cfg = _config(statistic=engine.StatisticSpec(kind="rv"))
    calls = _failing_build_tensor(monkeypatch, set())
    with pytest.raises(ValueError, match="glm statistic"):
        sim.run_method_comparison(cfg, ["bh"])["bh"]
    with pytest.raises(ValueError, match="glm statistic"):
        sim.run_replication(cfg, 0, "bh")
    assert calls == []


@pytest.mark.parametrize(
    "dgp, sampler, family, methods, message",
    [
        (1, "parametric-logistic", None, METHODS, "needs a binary exposure"),
        (5, "residual-perm", None, METHODS, "needs a continuous exposure"),
        (1, "residual-perm", "poisson", METHODS, "expects count outcomes"),
        (1, "residual-perm", "poisson", ("bh",), "expects count outcomes"),
    ],
)
def test_incompatible_kinds_refused_before_any_dataset(
    monkeypatch, dgp, sampler, family, methods, message
):
    # the generator fixes the exposure and outcome kinds, so a mismatch
    # is one configuration error, not one failed replication per dataset
    real = sim.gen_dataset
    drawn = []
    monkeypatch.setattr(sim, "gen_dataset", lambda config, rng: drawn.append(1) or real(config, rng))
    extra = {"statistic": engine.StatisticSpec(kind="glm", family=family)} if family else {}
    cfg = _config(dgp=dgp, sampler=engine.ResamplePlan(sampler, b_count=5, seed=0), **extra)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=message):
            sim.run_method_comparison(cfg, methods)
    assert drawn == [] and _replication_warnings(caught) == []


def test_bh_alone_does_not_check_the_unused_sampler():
    # bh makes no draws, so a sampler the exposure cannot take is no error
    cfg = _config(
        dgp=5, reps=1, sampler=engine.ResamplePlan("residual-perm", b_count=5, seed=0)
    )
    assert sim.run_method_comparison(cfg, ["bh"])["bh"].reps_completed == 1
