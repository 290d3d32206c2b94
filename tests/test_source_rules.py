"""Rules of the package's source text: a name that only one module, or none,
may use. Read from the modules' files, so the rules hold in any copy of the
tree, with or without its version-control history."""

import re
from pathlib import Path

import pytest

import metalora

PACKAGE = Path(metalora.__file__).parent

# rule -> (pattern, the one module that may match it or None, why)
RULES = {
    "one AdamW path": (
        r"FlatGroup|AdamWState|adamw_step", "numerics.py",
        "every trainer steps a flat buffer with one kernels.adamw_update call; "
        "numerics.adamw_step and AdamWState are only the tests' one-tensor reference"),
    "only generate reads a model's factors": (
        r"\.operands\(|set_factors", "toymodel.py",
        "the trainers read the base weights and pass their own chains; no module "
        "outside toymodel.py may read or install a model's factors"),
    "one random generator constructor": (
        r"PCG64|default_rng|RandomState", "numerics.py",
        "every seeded stream comes from numerics.make_rng"),
    "one gradient request": (
        r"\bneed=|_NEED\b|\bGRADIENTS\b|\bTRAINED\b", None,
        "a step computes exactly the gradients whose out slots its caller fills, "
        "so no module names them a second time in a set"),
}


@pytest.mark.parametrize("rule", list(RULES))
def test_source_rule(rule):
    pattern, exempt, why = RULES[rule]
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1 and exempt in {None, *(m.name for m in modules)}
    hits = [f"{m.name}:{n}: {line.strip()}" for m in modules if m.name != exempt
            for n, line in enumerate(m.read_text().splitlines(), 1)
            if re.search(pattern, line)]
    assert not hits, f"{rule}: {why}\n" + "\n".join(hits)
