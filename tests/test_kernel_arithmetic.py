"""The publisher ranks its candidates on integers, and query estimation
sums on integers.

Scores are rationals, but phase 2 compares them as cross-multiplied
integer pairs and the two partitioners as integer numerators over a shared
denominator, so `engine.py`, where all three kernels live, has no use for
`Fraction`.  An `ast` walk of the whole module, imports, nested functions
and annotations included, keeps it that way.  Query estimates are exact
rationals too, but each one is a single integer over the release's common
denominator: a count of the `Fraction`s a batch builds keeps it that way.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import mdistinct
from mdistinct import evaluation
from mdistinct.evaluation import ExperimentConfig, random_query, run_experiment
from mdistinct.fileio import synthetic_schema

ENGINE = Path(mdistinct.__file__).parent / "engine.py"


def names_used(node: ast.AST) -> set[str]:
    """Every identifier a node mentions as a name, an attribute or an
    import."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
            if sub.asname:
                found.add(sub.asname)
        elif isinstance(sub, ast.ImportFrom) and sub.module:
            found.update(sub.module.split("."))
    return found


def functions(source: str) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)}


def test_collector_sees_nested_functions_attributes_and_annotations():
    source = (
        "def kernel(x: int) -> int:\n"
        "    '''No Fraction here: a docstring is text.'''\n"
        "    def inner():\n"
        "        return fractions.Fraction(1)\n"
        "    return x\n"
        "def typed():\n"
        "    best: Fraction | None = None\n"
        "def plain():\n"
        "    return 'Fraction'\n")
    found = functions(source)
    assert "Fraction" in names_used(found["kernel"])
    assert "Fraction" in names_used(found["typed"])
    assert "Fraction" not in names_used(found["plain"])


def test_collector_sees_imports():
    for source in ("from fractions import Fraction\n",
                   "from fractions import Fraction as Q\n",
                   "import fractions\n",
                   "from fractions import *\n"):
        found = names_used(ast.parse(source))
        assert "Fraction" in found or "fractions" in found, source
    assert names_used(ast.parse("from math import prod\n")) == {"math",
                                                                "prod"}


def test_kernels_do_not_name_fraction():
    found = names_used(ast.parse(ENGINE.read_text()))
    assert "Fraction" not in found
    assert "fractions" not in found


# ---------------------------------------------------------------------------
# query estimation sums on integers and builds one rational per estimate


def test_estimation_builds_one_fraction_per_positive_estimate(monkeypatch):
    report = run_experiment(ExperimentConfig(
        publisher="m_invariance", m=2, d=5, n_records=60, n_releases=2,
        inserts=10, deletes=5, internal_updates=10, thetas=(0.5,),
        n_queries=1, seed=5, sensitive_size=10))
    schema, model = synthetic_schema(5, 10)
    domain = sorted(model.sensitive_domain)
    rng = random.Random(0)
    queries = [random_query(schema, domain, theta, rng)
               for theta in (0.1, 0.5, 0.9) for _ in range(100)]
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    for release in report.published:
        evaluator = evaluation.ReleaseEvaluator(release, schema, domain)
        expected = evaluator.batch(queries)
        built.clear()
        monkeypatch.setattr(evaluation, "Fraction", counting)
        estimates = evaluator.batch(queries)
        monkeypatch.undo()
        positive = sum(1 for e in estimates if e > 0)
        assert estimates == expected
        assert 0 < positive < len(queries)
        assert len(built) <= positive
