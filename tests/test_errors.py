"""The one budget gate, ``errors.charge`` and where a BudgetError is built,
and the refusal types of ``errors`` as the only deliberate raises."""
import ast
import math
from pathlib import Path

import pytest

from etale.errors import DEFAULT_ENUMERATION_BUDGET, BudgetError, charge

SRC = Path(__file__).resolve().parents[1] / "src" / "etale"


def test_charge_refuses_past_the_budget():
    # None is the enumeration default, and math.inf allows any count
    charge("ball of radius 9", DEFAULT_ENUMERATION_BUDGET, "elements", None)
    with pytest.raises(BudgetError) as err:
        charge("ball of radius 9", 10 ** 400, "elements", None)
    assert (err.value.required, err.value.budget) == (10 ** 400, DEFAULT_ENUMERATION_BUDGET)
    assert str(err.value) == ("ball of radius 9 needs about 10^400.00 elements, "
                              "budget is 5000000")
    charge("ball of radius 9", 10 ** 400, "elements", math.inf)
    charge("ball of radius 2", 17, "elements", 17)
    with pytest.raises(BudgetError) as err:
        charge("ball of radius 2", 17, "elements", 16)
    assert (err.value.required, err.value.budget) == (17, 16)
    assert str(err.value) == "ball of radius 2 needs 17 elements, budget is 16"
    with pytest.raises(BudgetError) as err:
        charge("four-point scan of radius 9", 10 ** 31, "quadruples", 5)
    assert err.value.required == 10 ** 31
    assert str(err.value) == ("four-point scan of radius 9 needs about 10^31.00 quadruples, "
                              "budget is 5")
    # a count too large to form is charged by its base-10 logarithm
    charge("ball of radius 9", None, "elements", math.inf, log10=1e300)
    with pytest.raises(BudgetError, match="needs about 10"):
        charge("ball of radius 9", None, "elements", None, log10=6.7)  # 10^6.7 > 5,000,000
    charge("ball of radius 9", None, "elements", 5, log10=0.69)  # 10^0.69 < 5
    with pytest.raises(BudgetError) as err:
        charge("ball of radius 9", None, "elements", 5, log10=0.7)
    assert (err.value.required, err.value.budget) == (None, 5)
    assert str(err.value) == "ball of radius 9 needs about 10^0.70 elements, budget is 5"


def test_budget_errors_are_built_only_by_charge():
    # every refusal of a work estimate goes through charge; power_sequence_norm
    # re-raises a convolution's refusal with the n it was refused at
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if not isinstance(node, ast.Call) or "BudgetError" not in (
                    getattr(func, "id", None), getattr(func, "attr", None)):
                continue
            chain = [node]
            while chain[-1] in parent:
                chain.append(parent[chain[-1]])
            where = next((n.name for n in chain if isinstance(n, ast.FunctionDef)), None)
            in_handler = any(isinstance(n, ast.ExceptHandler) for n in chain)
            sites.append((path.name, where, in_handler))
    assert sorted(sites) == [("errors.py", "charge", False),
                             ("spectral.py", "power_sequence_norm", True)]


def test_every_refusal_raises_a_refusal_type():
    # a bare ValueError reads as a fault, with its traceback: every deliberate
    # refusal raises a type of errors.py, whose base Refusal is a ValueError
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
            name = getattr(getattr(exc, "func", exc), "id", None)
            if name == "ValueError":
                sites.append((path.name, node.lineno))
    assert sites == []


def test_the_budget_default_is_decided_only_by_charge():
    # charge reads a budget of None as DEFAULT_ENUMERATION_BUDGET: no other
    # module names the constant or compares a budget with None
    sites = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if (any(isinstance(s, ast.Constant) and s.value is None for s in sides)
                        and any("budget" in ast.unparse(s) for s in sides)):
                    names.add("budget compared with None")
            sites += [(path.name, node.lineno, name) for name in names
                      if name in ("DEFAULT_ENUMERATION_BUDGET", "budget compared with None")]
    assert sites == []
