"""The run record names every setting of its run once, by field name: its
``params`` carry the prompt length, the RunConfig and the ModelConfig whole,
and its ``run_id`` hashes them all."""

from dataclasses import fields, replace

import pytest

from gemfilter.config import ModelConfig
from gemfilter.counting import CostSession
from gemfilter.runner import RunConfig, RunResult, Strategy, metrics_document, run_generation
from gemfilter.testmodels import make_random_model
from helpers import config

CFG = config(m=2, h=2, hk=1, dh=8, vocab=64, hidden=16, max_seq=128)
RC = RunConfig(Strategy.SNAPKV, max_new_tokens=4, select_k=16, pool_kernel=3, window=4)
TOKENS = list(range(40))

# A value unlike RC's for each setting but the strategy.
RUN_CHANGES = dict(max_new_tokens=5, select_k=17, filter_layer=2, pool_kernel=5, window=8)
# A valid change of each ModelConfig field.  d_model is n_heads * head_dim,
# so a change of any of the three changes one of the others with it.
SHAPE_CHANGES = dict(
    n_layers=dict(n_layers=3),
    n_heads=dict(n_heads=4, d_model=32),
    n_kv_heads=dict(n_kv_heads=2),
    head_dim=dict(head_dim=4, d_model=8),
    d_model=dict(n_heads=1, d_model=8),
    vocab_size=dict(vocab_size=65),
    hidden_mlp=dict(hidden_mlp=17),
    rope_theta=dict(rope_theta=500.0),
    use_rope=dict(use_rope=False),
    norm_eps=dict(norm_eps=1e-6),
    max_seq=dict(max_seq=256),
)


def record(rc=RC, cfg=CFG) -> dict:
    """The record of a run with no tokens and no counters: only its settings vary."""
    result = RunResult(output_tokens=[], session=CostSession())
    return metrics_document(
        weights=make_random_model(cfg, 0), tokens=TOKENS, rc=rc, result=result,
        include_wall_times=False,
    )


def test_params_name_every_setting_by_its_field_name():
    assert set(RUN_CHANGES) == {f.name for f in fields(RunConfig)} - {"strategy"}
    assert set(SHAPE_CHANGES) == {f.name for f in fields(ModelConfig)}
    params = record()["params"]
    assert params == {"n": len(TOKENS), **RC.settings(), **CFG.to_dict()}
    assert len(params) == 1 + len(RUN_CHANGES) + len(SHAPE_CHANGES)


@pytest.mark.parametrize(
    "rc, cfg",
    [(replace(RC, **{name: value}), CFG) for name, value in RUN_CHANGES.items()]
    + [(RC, replace(CFG, **change)) for change in SHAPE_CHANGES.values()],
    ids=[*RUN_CHANGES, *SHAPE_CHANGES],
)
def test_each_setting_changes_params_and_run_id(rc, cfg):
    base, changed = record(), record(rc, cfg)
    assert changed["params"] != base["params"]
    assert changed["run_id"] != base["run_id"]


def test_snapkv_runs_at_two_windows_get_two_run_ids():
    """Two snapkv runs on one prompt and one model, at window 4 and pool kernel
    3 and at window 8 and pool kernel 5, are two records."""
    weights = make_random_model(CFG, 1)
    docs = [
        metrics_document(
            weights=weights, tokens=TOKENS, rc=rc, result=run_generation(weights, TOKENS, rc),
            include_wall_times=False,
        )
        for rc in (RC, replace(RC, window=8, pool_kernel=5))
    ]
    assert docs[0]["run_id"] != docs[1]["run_id"]
    assert (docs[0]["params"]["window"], docs[1]["params"]["window"]) == (4, 8)
    assert (docs[0]["params"]["pool_kernel"], docs[1]["params"]["pool_kernel"]) == (3, 5)
