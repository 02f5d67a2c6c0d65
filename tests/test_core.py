import numpy as np
import pytest

from batchband.core import (
    DecisionRule,
    DimensionMismatchError,
    GridError,
    Instance,
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


def test_write_csv_cell_format(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [[0.1, np.float64(1 / 3)], [None, 3], [np.int64(4), "x,y"]])
    assert path.read_bytes() == b'a,b\r\n0.1,0.3333333333333333\r\n,3\r\n4,"x,y"\r\n'


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
