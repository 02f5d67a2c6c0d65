import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from batchband.core import DimensionMismatchError, Instance
from batchband.environments import (
    _LOG_CHUNK,
    BernoulliEnv,
    DataError,
    LinearContextualEnv,
    LoggedData,
    PRESETS,
    block_features,
    make_linear_env,
    parse_env,
    preset,
    read_logged_csv,
    synth_logged_dataset,
    write_logged_csv,
)


def test_presets_exist_with_expected_means():
    assert preset("env1").means.tolist() == [0.7, 0.5]
    assert preset("env2").means.tolist() == [0.7, 0.4]
    assert preset("env3").means.tolist() == [0.7, 0.1]
    assert preset("env4").means.tolist() == [0.35, 0.18, 0.47, 0.61]
    assert preset("env5").means.tolist() == [0.40, 0.75, 0.57, 0.49]
    assert preset("env6").means.tolist() == [0.70, 0.50, 0.30, 0.10]
    assert len(PRESETS) == 6


def test_unknown_preset_raises():
    with pytest.raises(KeyError):
        preset("env7")


def test_parse_env_inline_means():
    env = parse_env("0.9,0.2,0.5")
    assert env.means.tolist() == [0.9, 0.2, 0.5]
    with pytest.raises(ValueError):
        parse_env("not,numbers")


def test_gaps_values():
    assert np.allclose(preset("env1").gap_vector(), [0.0, 0.2])
    assert np.allclose(preset("env3").gap_vector(), [0.0, 0.6])
    assert np.allclose(preset("env4").gap_vector(), [0.26, 0.43, 0.14, 0.0])


def test_gaps_nonnegative_zero_at_optimum_property():
    rng = np.random.default_rng(5)
    for _ in range(30):
        k = int(rng.integers(2, 7))
        env = BernoulliEnv(rng.uniform(size=k))
        g = env.gap_vector()
        assert np.all(g >= 0)
        assert g[env.optimal_arm] == 0.0


def test_bernoulli_validation():
    with pytest.raises(ValueError):
        BernoulliEnv(np.array([0.5, 1.2]))
    with pytest.raises(Exception):
        BernoulliEnv(np.array([0.5]))


@pytest.mark.parametrize("spec", ["nan,0.5", "0.7,nan", "inf,0.5", "0.5,-inf"])
def test_non_finite_means_rejected(spec):
    with pytest.raises(ValueError, match="must lie in"):
        parse_env(spec)


def test_bernoulli_sample_mean_matches():
    env = preset("env1")
    rng = np.random.default_rng(42)
    rewards = env.sample_rewards(np.zeros(100_000, dtype=int), rng)
    assert set(np.unique(rewards)) <= {0.0, 1.0}
    assert abs(rewards.mean() - 0.7) < 0.005


def test_bernoulli_sampling_deterministic_under_seed():
    env = preset("env4")
    acts = np.array([0, 1, 2, 3, 0, 1] * 10)
    r1 = env.sample_rewards(acts, np.random.default_rng(9))
    r2 = env.sample_rewards(acts, np.random.default_rng(9))
    assert np.array_equal(r1, r2)


def test_linear_env_norm_enforced():
    with pytest.raises(ValueError):
        LinearContextualEnv(np.full(4, 1.0), k=2, context_dim=2)
    env = LinearContextualEnv(np.full(4, 0.5), k=2, context_dim=2)
    assert env.dim == 4


@pytest.mark.parametrize("theta, k, context_dim, message", [
    (np.full(4, 0.5), 1, 4, "need k >= 2 arms and context_dim >= 1"),
    (np.full(2, 0.5), 2, 0, "need k >= 2 arms and context_dim >= 1"),
    (np.full(3, 0.5), 2, 2, "weight vector must have length 4"),
])
def test_linear_env_rejects_bad_dimensions(theta, k, context_dim, message):
    with pytest.raises(DimensionMismatchError, match=message):
        LinearContextualEnv(theta, k=k, context_dim=context_dim)


@pytest.mark.parametrize("build, field", [
    (BernoulliEnv, "means"),
    (lambda a: LinearContextualEnv(a, k=2, context_dim=1), "theta"),
    (Instance, "theta"),
], ids=["bernoulli", "linear", "instance"])
def test_construction_leaves_the_callers_array_writeable(build, field):
    callers = np.array([0.7, 0.5])
    stored = getattr(build(callers), field)
    assert callers.flags.writeable and not stored.flags.writeable
    callers[0] = 0.1  # the object keeps the values it was built from
    assert stored.tolist() == [0.7, 0.5]


def test_linear_contexts_on_unit_sphere():
    env = make_linear_env(k=3, context_dim=5, seed=1)
    ctx = env.contexts(np.random.default_rng(2).standard_normal((200, 5)))
    assert ctx.shape == (200, 5)
    assert np.allclose(np.linalg.norm(ctx, axis=1), 1.0, atol=1e-9)
    assert env.contexts(np.zeros((2, 3, 5))).tolist() == np.zeros((2, 3, 5)).tolist()


def test_linear_features_block_layout():
    fb = block_features(np.array([[1.0, 0.0], [0.0, 2.0]]), 2)
    assert fb.shape == (2, 2, 4)
    assert fb[0, 0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert fb[0, 1].tolist() == [0.0, 0.0, 1.0, 0.0]
    assert fb[1, 1].tolist() == [0.0, 0.0, 0.0, 2.0]
    with pytest.raises(DimensionMismatchError):
        block_features(np.array([1.0, 0.0]), 2)


def test_linear_mean_matrix_agrees_with_features():
    env = make_linear_env(k=3, context_dim=4, seed=3)
    rng = np.random.default_rng(4)
    ctx = env.contexts(rng.standard_normal((10, 4)))
    mm = env.mean_matrix(ctx)
    feats = block_features(ctx, env.k)
    assert np.allclose(mm, feats @ env.theta, atol=1e-12)


def test_linear_rewards_noise_unit_variance():
    env = make_linear_env(k=2, context_dim=3, seed=5)
    rng = np.random.default_rng(6)
    ctx = env.contexts(rng.standard_normal((20000, 3)))
    feats = block_features(ctx, env.k)[:, 0, :]
    rewards = env.rewards(feats, rng.standard_normal(20000))
    noise = rewards - feats @ env.theta
    assert abs(noise.mean()) < 0.02
    assert abs(noise.std() - 1.0) < 0.02


def test_synth_logged_dataset_uniform_logging():
    env = preset("env1")
    data = synth_logged_dataset(env, 50_000, seed=7)
    assert data.actions.shape == (50_000,)
    assert data.contexts.shape == (50_000, 0)
    assert abs((data.actions == 0).mean() - 0.5) < 0.01
    assert abs(data.rewards[data.actions == 0].mean() - 0.7) < 0.01
    assert (data.probs == 0.5).all()


@pytest.mark.parametrize("seed", [None, 2.5, -1, "3"])
@pytest.mark.parametrize("build", [
    lambda seed: synth_logged_dataset(preset("env1"), 10, seed),
    lambda seed: make_linear_env(2, 3, seed),
], ids=["synth_logged_dataset", "make_linear_env"])
def test_seed_must_be_a_non_negative_integer(build, seed):
    # None would draw from OS entropy, so the log could not be rebuilt
    with pytest.raises(DataError, match="seed must be a non-negative integer"):
        build(seed)


def log(contexts=((),), actions=(0,), rewards=(1.0,), probs=(0.5,)):
    return LoggedData(np.array(contexts, dtype=float), np.array(actions), rewards, probs)


def test_a_log_copies_the_callers_columns():
    cols = (np.zeros((2, 1)), np.array([0, 1]), np.array([1.0, 0.0]), np.full(2, 0.5))
    data = LoggedData(*cols)
    for name, col in zip(("contexts", "actions", "rewards", "probs"), cols):
        assert col.flags.writeable and not np.shares_memory(col, getattr(data, name))


def test_logged_record_validation():
    with pytest.raises(DataError):
        log(probs=(0.0,))
    with pytest.raises(DataError):
        log(probs=(1.5,))
    with pytest.raises(DataError):
        log(rewards=(float("nan"),))
    with pytest.raises(DataError):
        log(contexts=((0.1, np.inf),))


@pytest.mark.parametrize("kwargs, message", [
    (dict(contexts=np.zeros((0, 0)), actions=np.zeros(0, int), rewards=(), probs=()), "empty"),
    (dict(actions=(0, 1)), "columns"),
    (dict(contexts=np.zeros(1)), "columns"),
    (dict(contexts=((), ()), actions=(0, -1), rewards=(1.0, 1.0), probs=(0.5, 0.5)),
     "line 3: action is negative"),
    (dict(contexts=((), (), ()), actions=(0, 1, 0), rewards=(1.0, 0.0, 1.0),
          probs=(0.5, 0.5, -0.5)), "line 4: logging_prob outside"),
    (dict(contexts=((0.0,), (np.nan,)), actions=(0, 1), rewards=(1.0, 1.0),
          probs=(0.5, 0.5)), "line 3: context is not finite"),
])
def test_logged_data_rejects_bad_columns_naming_the_line(kwargs, message):
    with pytest.raises(DataError, match=message):
        log(**kwargs)


def test_logged_data_rejects_non_integer_actions():
    with pytest.raises(TypeError):
        log(actions=(0.5,))


def test_logged_data_columns_are_read_only_copies():
    actions = np.array([0, 1])
    data = log(contexts=((), ()), actions=actions, rewards=(1.0, 0.0), probs=(0.5, 0.5))
    actions[0] = 1
    assert data.actions.tolist() == [0, 1]
    assert data.actions.dtype == np.int64
    with pytest.raises(ValueError):
        data.rewards[0] = 0.0


def test_logged_csv_roundtrip_no_context(tmp_path):
    env = preset("env2")
    data = synth_logged_dataset(env, 200, seed=1)
    path = tmp_path / "log.csv"
    write_logged_csv(data, path)
    header = path.read_text().splitlines()[0]
    assert header == "action,reward,logging_prob"
    back = read_logged_csv(path)
    assert back.actions.shape == (200,)
    assert back.actions.tolist() == data.actions.tolist()
    assert back.rewards.tolist() == data.rewards.tolist()


def test_logged_csv_roundtrip_with_context(tmp_path):
    env = make_linear_env(k=2, context_dim=3, seed=8)
    data = synth_logged_dataset(env, 50, seed=2)
    path = tmp_path / "ctx.csv"
    write_logged_csv(data, path)
    header = path.read_text().splitlines()[0]
    assert header == "context_0,context_1,context_2,action,reward,logging_prob"
    back = read_logged_csv(path)
    assert np.allclose(back.contexts, data.contexts, atol=0)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def logged_data(draw):
    p = draw(st.integers(0, 3))
    n = draw(st.integers(1, 8))
    return LoggedData(
        np.array(draw(st.lists(st.lists(FINITE, min_size=p, max_size=p),
                               min_size=n, max_size=n)), dtype=float).reshape(n, p),
        np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))),
        draw(st.lists(FINITE, min_size=n, max_size=n)),
        draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=n, max_size=n)),
    )


def boundary_log(n, p):
    """``n`` rows of distinct values, so a row dropped, repeated or moved at a
    chunk's edge shows."""
    rows = np.arange(n, dtype=float)
    return LoggedData(np.add.outer(rows, np.arange(p)) / 7.0, np.arange(n) % 3,
                      rows / 3.0, np.full(n, 0.5))


# logs of one chunk less a row, one chunk, and one chunk and a row, for
# p = 0 and p > 0: they are read and written a chunk of rows at a time
@settings(max_examples=60, deadline=None)
@given(data=logged_data())
@example(data=boundary_log(_LOG_CHUNK - 1, 0))
@example(data=boundary_log(_LOG_CHUNK, 0))
@example(data=boundary_log(_LOG_CHUNK + 1, 0))
@example(data=boundary_log(_LOG_CHUNK - 1, 2))
@example(data=boundary_log(_LOG_CHUNK, 2))
@example(data=boundary_log(_LOG_CHUNK + 1, 2))
def test_logged_csv_write_read_round_trips_exactly(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_logged_csv(data, path)
    back = read_logged_csv(path)
    for name in ("contexts", "actions", "rewards", "probs"):
        a, b = getattr(data, name), getattr(back, name)
        assert (a.shape, a.dtype, a.tolist()) == (b.shape, b.dtype, b.tolist())


def log_text(bad_row, lead=1, p=0):
    """A log's text: ``lead`` good rows, then ``bad_row`` at line ``lead + 2``."""
    header = [f"context_{i}" for i in range(p)] + ["action", "reward", "logging_prob"]
    return ",".join(header) + "\n" + ("0.5," * p + "0,1.0,0.5\n") * lead + bad_row + "\n"


# a bad row in the second chunk of rows is named by its line in the file
@pytest.mark.parametrize("bad_row, p, lead, message", [
    ("1,oops,0.5", 0, 1, "line 3: could not convert string to float"),
    ("1,1.0", 0, _LOG_CHUNK, f"line {_LOG_CHUNK + 2}: expected 3 fields, got 2"),
    ("x,1,1.0,0.5", 1, _LOG_CHUNK + 5, f"line {_LOG_CHUNK + 7}: could not convert string"),
    ("1.5,1.0,0.5", 0, 2 * _LOG_CHUNK - 1, f"line {2 * _LOG_CHUNK + 1}: invalid literal for int"),
], ids=["reward", "ragged-row-in-chunk-2", "context-in-chunk-2", "action-in-chunk-2"])
def test_read_logged_csv_reports_line_numbers(tmp_path, bad_row, p, lead, message):
    path = tmp_path / "bad.csv"
    path.write_text(log_text(bad_row, lead, p))
    with pytest.raises(DataError, match=message):
        read_logged_csv(path)
    path.write_text("wrong,header\n")
    with pytest.raises(DataError, match="header"):
        read_logged_csv(path)


@pytest.mark.parametrize(
    "text",
    [
        "action,reward,logging_prob\n0,1.0,0.5\n1,nan,0.5\n",
        "action,reward,logging_prob\n0,1.0,0.5\n1,inf,0.5\n",
        "action,reward,logging_prob\n0,1.0,0.5\n1,-inf,0.5\n",
        "action,reward,logging_prob\n0,1.0,0.5\n1,1.0,nan\n",
        "context_0,action,reward,logging_prob\n0.5,0,1.0,0.5\nnan,1,1.0,0.5\n",
        "context_0,action,reward,logging_prob\n0.5,0,1.0,0.5\ninf,1,1.0,0.5\n",
        pytest.param(log_text("1,inf,0.5", _LOG_CHUNK + 5), id="reward-in-chunk-2"),
    ],
)
def test_read_logged_csv_rejects_non_finite_values(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    line = text.count("\n")  # the bad row is the last
    with pytest.raises(DataError, match=f"line {line}: "):
        read_logged_csv(path)


def test_blank_row_is_malformed_at_its_own_line(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("action,reward,logging_prob\n0,1.0,0.5\n\n1,0.0,0.5\n")
    with pytest.raises(DataError, match="line 3: expected 3 fields, got 0"):
        read_logged_csv(path)


def test_header_only_file_is_empty(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("context_0,action,reward,logging_prob\n")
    with pytest.raises(DataError, match="empty logged dataset"):
        read_logged_csv(path)


@pytest.mark.parametrize("field, message", [
    ("1.5", "line 3: invalid literal for int"),
    ("99999999999999999999", "line 3: Python int too large"),
])
def test_read_logged_csv_rejects_bad_actions_naming_the_line(tmp_path, field, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"action,reward,logging_prob\n0,1.0,0.5\n{field},1.0,0.5\n")
    with pytest.raises(DataError, match=message):
        read_logged_csv(path)


def traced_peak(call):
    """``call()`` and the peak of memory it allocated, numpy's buffers included."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def column_bytes(data):
    return sum(getattr(data, name).nbytes for name in ("contexts", "actions", "rewards", "probs"))


# Beyond the columns it returns, a call may hold one chunk of rows (about
# 1.1 MiB of text at 1,024 rows of p = 5), and in synth_logged_dataset one
# more copy of the columns while ``LoggedData`` copies them and the
# (n, k * p) features of the chosen arms (2.5 MiB at 16 chunks), which one
# matrix-vector product must take whole to keep its bits.  Holding the whole
# log as strings or as an (n, k, k * p) feature tensor, 10.9-13.0 MiB at 16
# chunks, does not fit.
LOG_IO_SLACK = 5 * 2**20


@pytest.mark.parametrize("chunks", [16, 64])
def test_a_read_holds_its_columns_and_one_chunk(tmp_path, chunks):
    # joining the chunks at the end, and copying the joined columns again,
    # held 1.16 and 4.40 MiB beyond the columns at 16 and 64 chunks
    path = tmp_path / "log.csv"
    write_logged_csv(synth_logged_dataset(make_linear_env(4, 5, seed=3),
                                          chunks * _LOG_CHUNK, 1), path)
    back, read_peak = traced_peak(lambda: read_logged_csv(path))
    assert read_peak - column_bytes(back) <= 1.5 * 2**20


@pytest.mark.parametrize("chunks", [4, 16])
def test_logged_data_io_peaks_within_a_fixed_slack_of_its_columns(tmp_path, chunks):
    env = make_linear_env(4, 5, seed=3)
    path = tmp_path / "log.csv"
    data, synth_peak = traced_peak(lambda: synth_logged_dataset(env, chunks * _LOG_CHUNK, 1))
    _, write_peak = traced_peak(lambda: write_logged_csv(data, path))
    back, read_peak = traced_peak(lambda: read_logged_csv(path))
    beyond = {"synth": synth_peak - column_bytes(data), "write": write_peak,
              "read": read_peak - column_bytes(back)}
    assert max(beyond.values()) <= LOG_IO_SLACK, beyond
