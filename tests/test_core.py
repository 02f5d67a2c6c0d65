import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from batchband.core import (
    DecisionRule,
    DimensionMismatchError,
    GridError,
    Instance,
    _mean_se,
    make_grid,
    rule_value,
    write_csv,
)


def test_make_grid_truncates_to_batch_multiple():
    g = make_grid(7, 2)
    assert (g.n, g.b, g.M) == (6, 2, 3)


def test_make_grid_exact_multiple():
    g = make_grid(2000, 64)
    assert g.n == 1984 and g.M == 31
    g = make_grid(1000, 10)
    assert (g.n, g.M) == (1000, 100)


def test_make_grid_b1_identity():
    g = make_grid(17, 1)
    assert (g.n, g.b, g.M) == (17, 1, 17)


def test_make_grid_rejects_bad_parameters():
    with pytest.raises(GridError):
        make_grid(5, 10)
    with pytest.raises(GridError):
        make_grid(10, 0)
    with pytest.raises(GridError):
        make_grid(0, 1)


@pytest.mark.parametrize("n,b", [(2000.0, 1), (10.5, 2), (20, 2.0), (np.float64(10), 2)])
def test_make_grid_rejects_a_horizon_or_batch_size_that_is_not_an_integer(n, b):
    # a float was kept, or truncated, and the engine died on it later
    with pytest.raises(GridError, match="must be integers"):
        make_grid(n, b)


def test_write_csv_cell_format(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [([0.1, None, np.int64(4)], [np.float64(1 / 3), 3, "x,y"])])
    assert path.read_bytes() == b'a,b\r\n0.1,0.3333333333333333\r\n,3\r\n4,"x,y"\r\n'


def test_write_csv_rejects_a_ragged_block(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "out.csv", ["a", "b"], [(range(3), np.zeros(2))])


def reference_write_csv(path, header, blocks):
    """The row-wise writer ``write_csv`` replaced: ``csv.writer`` over each
    block's rows, with arrays turned into Python scalars by ``tolist``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for block in blocks:
            writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in block)))


NAN_WITH_PAYLOAD = np.array(0x7FF8000000000001, dtype=np.int64).view(np.float64).item()
EDGE_FLOATS = [
    0.0, -0.0, np.nan, -np.nan, NAN_WITH_PAYLOAD, np.inf, -np.inf, 5e-324,
    2.225073858507201e-308, 1e16, 9999999999999998.0, 1e-05, 0.0001, 0.1, 1 / 3,
]
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats()
TEXT = st.text(st.sampled_from('ab1 .,"\r\n\t'), max_size=5)


def columns(n: int):
    """A column of ``n`` cells in each form ``write_csv`` takes; float
    columns draw from a pool of at most three values, so runs are common."""
    return st.one_of(
        st.lists(FLOATS, min_size=1, max_size=3)
        .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        .map(lambda v: np.array(v, dtype=np.float64)),
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)
        .map(lambda v: np.array(v, dtype=np.int64)),
        st.tuples(st.integers(-3, 3), st.sampled_from([1, 2, -1]))
        .map(lambda a: range(a[0], a[0] + a[1] * n, a[1])),
        st.lists(st.none() | TEXT | st.integers() | st.booleans() | FLOATS
                 | FLOATS.map(np.float64), min_size=n, max_size=n),
    )


@st.composite
def tables(draw):
    width = draw(st.integers(1, 4))
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    blocks = [
        tuple(draw(columns(n)) for _ in range(width))
        for n in draw(st.lists(st.integers(0, 8), max_size=3))
    ]
    return header, blocks


@settings(max_examples=300, deadline=None)
@given(tables())
@example((["x", "y"], [(np.array([0.0, -0.0, -0.0, np.nan, np.nan, NAN_WITH_PAYLOAD, np.inf,
                                  -np.inf, 5e-324, 5e-324, 1e16, 1e-05]),
                        [None, "", "a,b", 'say "hi"', "cr\r", "lf\n", 1, 2.5,
                         np.float64(0.1), True, None, "a,b"])]))
@example((["only"], [([None, "", "a", 0.5],), (range(2),)]))
def test_write_csv_matches_the_row_wise_csv_writer(table):
    header, blocks = table
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        write_csv(got, header, blocks)
        reference_write_csv(want, header, blocks)
        assert got.read_bytes() == want.read_bytes()


def test_mean_se_over_reps():
    runs = np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]])
    mean, se = _mean_se(runs)
    assert np.allclose(mean, [2.0, 3.0, 4.0])
    assert np.all(se > 0)
    assert np.all(_mean_se(runs[:1])[1] == 0.0)


def test_rule_value_fifty_fifty():
    inst = Instance(np.array([0.7, 0.5]))
    rule = DecisionRule(np.array([0.5, 0.5]))
    assert rule_value(rule, inst) == pytest.approx(0.6, abs=1e-12)


def test_rule_value_dimension_mismatch():
    inst = Instance(np.array([0.7, 0.5, 0.3]))
    with pytest.raises(DimensionMismatchError):
        rule_value(DecisionRule(np.array([0.5, 0.5])), inst)


def test_decision_rule_validation():
    with pytest.raises(ValueError):
        DecisionRule(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        DecisionRule(np.array([-0.1, 1.1]))
    with pytest.raises(DimensionMismatchError):
        DecisionRule(np.array([]))
    with pytest.raises(ValueError, match="rule probabilities must be finite"):
        DecisionRule(np.array([np.nan, 1.0]))
    pm = DecisionRule(np.array([0.0, 1.0, 0.0]))
    assert pm.probs.tolist() == [0.0, 1.0, 0.0]


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(np.array([0.5, np.inf]))
    with pytest.raises(DimensionMismatchError):
        Instance(np.array([[0.1, 0.2]]))
    inst = Instance([0.7, 0.5])
    assert inst.dim == 2
    with pytest.raises(ValueError):
        inst.theta[0] = 0.0  # frozen storage
