"""Source hygiene: every name a package module imports is used in it, the
intervention stream builds no random generator, one function holds the
artifact float format, the backward holds no Python loop, scoring
selects its top k without sorting a whole score matrix, the pair index is
the one pass from a corpus's pairs to arrays, the training step keeps its
sentences in id arrays and takes them in no other form, one writer makes
every synthetic sentence and one parser reads every comma-list flag. No
module imports another's private name, one-caller helpers stay inlined, one
function holds the target bound, and only the encoder builds a sentence
table, which holds its ids in sentence order and nothing beside them."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import matchlab
from matchlab import SentenceTable

MODULES = sorted(p for p in Path(matchlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _function(module: str, name: str) -> ast.FunctionDef:
    """The one top-level function ``name`` of ``matchlab.<module>``."""
    path = Path(matchlab.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == name]
    assert len(defs) == 1, f"{module}.{name} not found"
    return defs[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


# The functions that make a batch's interventions and dropout views: they
# hash their coordinates and build no per-sentence random generator.
HASHED = {"encoder": ("encode", "encode_batch", "counter_hash", "_dropout_uniforms"),
          "interventions": ("mask_fraction", "mask_rows", "_dropped"),
          "objectives": ("intervention_seed", "total_loss")}
GENERATORS = {"default_rng", "Generator", "SeedSequence"}


@pytest.mark.parametrize("module,function",
                         [(m, f) for m, names in HASHED.items() for f in names])
def test_intervention_stream_builds_no_generator(module, function):
    func = _function(module, function)
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(func) if isinstance(node, ast.Call)}
    assert not called & GENERATORS, f"{module}.{function} calls {called & GENERATORS}"


def test_one_function_holds_the_float_format():
    # Every text artifact writes floats through one writer, so the format
    # cannot fork between files.
    holders = set()
    for path in MODULES + [Path(matchlab.__file__)]:
        text = path.read_text(encoding="utf-8")
        funcs = [node for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.FunctionDef)]
        for n, line in enumerate(text.splitlines(), start=1):
            if ".10g" in line:
                inner = [f for f in funcs if f.lineno <= n <= f.end_lineno]
                innermost = min(inner, key=lambda f: f.end_lineno - f.lineno, default=None)
                holders.add((path.name, innermost and innermost.name))
    assert len(holders) == 1 and None not in next(iter(holders)), holders


# The backward and its summing pass work on whole arrays: a per-use or
# per-token Python loop there costs more than the rest of a batch's backward.
ARRAY_ONLY = {"encoder": ("encode_batch_backward", "sum_rows")}
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


@pytest.mark.parametrize("module,function",
                         [(m, f) for m, names in ARRAY_ONLY.items() for f in names])
def test_backward_holds_no_python_loop(module, function):
    func = _function(module, function)
    loops = [(type(node).__name__, node.lineno) for node in ast.walk(func)
             if isinstance(node, LOOPS)]
    assert not loops, f"{module}.{function} loops in Python: {loops}"


# Scoring orders only the items that can reach its top k: each scorer calls
# the one top-k helper, and nothing in it sorts its scores whole.
SCORERS = ("evaluate", "rank_items")
SORTS = {"argsort", "sort", "lexsort"}


@pytest.mark.parametrize("function", SCORERS)
def test_scoring_sorts_no_whole_score_matrix(function):
    calls = [node for node in ast.walk(_function("evaluation", function))
             if isinstance(node, ast.Call)]
    called = [getattr(c.func, "attr", getattr(c.func, "id", None)) for c in calls]
    n_top_k = called.count("_top_k")
    assert n_top_k == 1, f"evaluation.{function} calls _top_k {n_top_k} times"
    sorted_scores = [c.lineno for c, name in zip(calls, called) if name in SORTS
                     and "scores" in {n.id for n in ast.walk(c) if isinstance(n, ast.Name)}]
    assert not sorted_scores, f"evaluation.{function} sorts its scores at lines {sorted_scores}"


# The pairs become arrays once per corpus, in its pair index: evaluate reads
# the index, and no other function turns pairs into arrays.
ARRAY_BUILDERS = {"array", "asarray", "fromiter"}


def test_the_pair_index_is_the_one_pass_from_pairs_to_arrays():
    reads = [node.lineno for node in ast.walk(_function("evaluation", "evaluate"))
             if isinstance(node, ast.Attribute) and node.attr == "pairs"]
    assert not reads, f"evaluation.evaluate reads .pairs at lines {reads}"
    passes = set()
    for path in MODULES:
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            nodes = list(ast.walk(func))
            if (any(isinstance(n, ast.Attribute) and n.attr == "pairs" for n in nodes)
                    and any(isinstance(n, ast.Call)
                            and getattr(n.func, "attr", None) in ARRAY_BUILDERS
                            for n in nodes)):
                passes.add(f"{path.stem}.{func.name}")
    assert passes == {"corpus.pair_index"}, passes


# The training step reads its sentences as rows of one id table: views are
# deduplicated as integer keys, not as tuples in a dict, the forward sorts
# whole id matrices, not one sentence at a time, and mining reads relevance
# from a matrix, not from a set per example.
SET_CALLS = ("set", "frozenset")


def test_views_are_keyed_by_rows_not_by_tuples():
    tree = ast.parse((Path(matchlab.__file__).parent / "objectives.py").read_text("utf-8"))
    names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_view" not in names
    dedups = [node.lineno for node in ast.walk(_function("objectives", "_kernel"))
              if isinstance(node, ast.Attribute) and node.attr == "setdefault"]
    assert not dedups, f"objectives._kernel keys views in a dict at lines {dedups}"


def test_the_forward_sorts_no_sentence_alone():
    sorts = [node.lineno for node in ast.walk(_function("encoder", "encode_batch"))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sorted"]
    assert not sorts, f"encoder.encode_batch calls sorted() at lines {sorts}"


@pytest.mark.parametrize("function", ["mine_negatives"])
def test_mining_builds_no_set_per_example(function):
    sets = [node.lineno for node in ast.walk(_function("trainer", function))
            if isinstance(node, (ast.Set, ast.SetComp))
            or isinstance(node, ast.Call) and getattr(node.func, "id", None) in SET_CALLS
            or isinstance(node, ast.Attribute) and node.attr == "keys"]
    assert not sets, f"trainer.{function} builds sets at lines {sets}"


# The training step takes one input form, rows of a sentence table: the
# per-example forms beside it, their conversions and the content dedup of
# masked views stay deleted.
ADAPTERS = ("ContrastiveExample", "ScoredExample", "MiningExample")
ADAPTER_HELPERS = {"objectives": ("_table_terms", "_distinct", "_sentence_keys"),
                   "interventions": ("mask_fractions",),
                   "trainer": ("_mine",)}


def test_the_training_step_has_one_input_form():
    exported = [name for name in ADAPTERS if hasattr(matchlab, name)]
    assert not exported, f"matchlab exports {exported}"
    for module, names in ADAPTER_HELPERS.items():
        tree = ast.parse((Path(matchlab.__file__).parent / f"{module}.py").read_text("utf-8"))
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not defined & set(names), f"{module} defines {defined & set(names)}"
        assert not defined & set(ADAPTERS), f"{module} defines {defined & set(ADAPTERS)}"


def _nodes(module: str) -> list[tuple[str | None, ast.AST]]:
    """Each node in ``matchlab.<module>`` with its innermost enclosing function."""
    path = Path(matchlab.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    nodes = []
    for node in ast.walk(tree):
        if hasattr(node, "lineno"):
            inner = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
            innermost = min(inner, key=lambda f: f.end_lineno - f.lineno, default=None)
            nodes.append((innermost and innermost.name, node))
    return nodes


def _calls(module: str) -> list[tuple[str | None, ast.Call]]:
    """Each call in ``matchlab.<module>`` with its innermost enclosing function."""
    return [(name, node) for name, node in _nodes(module) if isinstance(node, ast.Call)]


def test_one_writer_makes_every_synthetic_sentence():
    # Both generators write through the one sentence writer, so their
    # sentences cannot drift apart in form or in draw order.
    callers = [name for name, call in _calls("corpus")
               if getattr(call.func, "id", None) == "_make_text"]
    assert callers == ["_sentences"], callers


def test_one_parser_reads_every_comma_list_flag():
    # A comma-list flag read any other way can skip the empty-list check.
    splitters = {name for name, call in _calls("cli")
                 if getattr(call.func, "attr", None) == "split"
                 and [getattr(a, "value", None) for a in call.args] == [","]}
    assert splitters == {"_comma_list"}, splitters


def test_no_module_imports_a_private_name():
    # A rule another module needs lives where it is used, or is public.
    private = []
    for path in MODULES + [Path(matchlab.__file__)]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                private += [f"{path.name}:{node.lineno} {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert not private, private


# Helpers folded into their one caller.
INLINED = {"objectives": ("_loss",), "trainer": ("_chunk",), "cli": ("_regularizer_from_flags",)}


@pytest.mark.parametrize("module", sorted(INLINED))
def test_one_caller_helpers_stay_inlined(module):
    tree = ast.parse((Path(matchlab.__file__).parent / f"{module}.py").read_text("utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    kept = defined & set(INLINED[module])
    assert not kept, f"{module} defines {kept}"


def test_one_function_holds_the_target_bound():
    # Every target check (fitting targets, mse_loss, augmented pairs) goes
    # through one function, so the bound and its message cannot fork.
    holders = {name for name, node in _nodes("objectives")
               if isinstance(node, ast.Constant) and node.value == 1e-9}
    assert holders == {"_check_targets"}, holders


def test_only_the_encoder_builds_a_sentence_table():
    # Other modules get a table from SentenceTable.of or from a table's own
    # methods (take, drop, concat), so its layout and padding have one owner.
    built = [f"{path.name}:{node.lineno}" for path in MODULES if path.stem != "encoder"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SentenceTable"]
    assert not built, built


def test_a_sentence_table_keeps_no_positions():
    # Rows are in sentence order, so no permutation back to it is stored.
    assert SentenceTable.__slots__ == ("ids", "lengths")
    assert not hasattr(SentenceTable, "positions") and not hasattr(SentenceTable, "in_order")
