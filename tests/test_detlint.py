"""The determinism lint: each rule fires on a crafted snippet, the
suppression marker works, and the shipped fingerprint-path modules are
clean (the same invariant CI enforces next to ruff)."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "detlint", REPO_ROOT / "tools" / "detlint.py"
)
detlint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(detlint)


def rules_in(source):
    return [f.rule for f in detlint.check_source("<test>", source)]


class TestWallClock:
    def test_time_time_flagged(self):
        assert rules_in("import time\nx = time.time()\n") == ["DL101"]

    def test_perf_counter_flagged(self):
        assert rules_in(
            "import time\nstart = time.perf_counter()\n"
        ) == ["DL101"]

    def test_datetime_now_flagged(self):
        assert rules_in(
            "import datetime\nstamp = datetime.datetime.now()\n"
        ) == ["DL101"]

    def test_virtual_time_not_flagged(self):
        assert rules_in("clock = self.virtual_time()\n") == []


class TestUnorderedIteration:
    def test_set_literal_for_loop_flagged(self):
        assert rules_in(
            "for name in {'a', 'b'}:\n    use(name)\n"
        ) == ["DL102"]

    def test_set_call_comprehension_flagged(self):
        assert rules_in(
            "out = [f(x) for x in set(items)]\n"
        ) == ["DL102"]

    def test_frozenset_generator_flagged(self):
        assert rules_in(
            "total = sum(x for x in frozenset(items))\n"
        ) == ["DL102"]

    def test_sorted_set_not_flagged(self):
        assert rules_in(
            "for name in sorted({'a', 'b'}):\n    use(name)\n"
        ) == []

    def test_list_iteration_not_flagged(self):
        assert rules_in("for item in [1, 2]:\n    use(item)\n") == []


class TestUnorderedLocals:
    """DL102 follows a local name bound to a set in the same function."""

    def test_local_set_call_flagged(self):
        assert rules_in(
            "def f(items):\n"
            "    seen = set(items)\n"
            "    return [g(x) for x in seen]\n"
        ) == ["DL102"]

    def test_local_set_display_and_comprehension_flagged(self):
        assert rules_in(
            "def f(items):\n"
            "    a = {1, 2}\n"
            "    b = {x for x in items}\n"
            "    for x in a:\n"
            "        use(x)\n"
            "    return sum(y for y in b)\n"
        ) == ["DL102", "DL102"]

    def test_local_frozenset_and_set_operator_flagged(self):
        assert rules_in(
            "def f(items, other):\n"
            "    rest = frozenset(items) - other\n"
            "    for x in rest:\n"
            "        use(x)\n"
        ) == ["DL102"]

    def test_set_annotated_local_flagged(self):
        assert rules_in(
            "def f(items):\n"
            "    seen: Set[str] = collect(items)\n"
            "    for x in seen:\n"
            "        use(x)\n"
        ) == ["DL102"]

    def test_local_from_set_returning_function_flagged(self):
        source = (
            "from typing import Set\n"
            "def seeds(pinned) -> Set[str]:\n"
            "    return {p for p in pinned}\n"
            "class K:\n"
            "    def _seeds(self, pinned) -> set:\n"
            "        return set(pinned)\n"
            "    def run(self, pinned):\n"
            "        a = seeds(pinned)\n"
            "        b = self._seeds(pinned)\n"
            "        return [x for x in a] + [y for y in b]\n"
        )
        findings = detlint.check_source("<test>", source)
        assert [(f.rule, f.line) for f in findings] == [
            ("DL102", 10), ("DL102", 10)]

    def test_direct_call_of_set_returning_function_flagged(self):
        assert rules_in(
            "def seeds(pinned) -> frozenset:\n"
            "    return frozenset(pinned)\n"
            "def run(pinned):\n"
            "    for x in seeds(pinned):\n"
            "        use(x)\n"
        ) == ["DL102"]

    def test_rebound_to_sorted_not_flagged(self):
        assert rules_in(
            "def f(items):\n"
            "    seen = set(items)\n"
            "    seen = sorted(seen)\n"
            "    for x in seen:\n"
            "        use(x)\n"
        ) == []

    def test_list_local_and_other_functions_not_flagged(self):
        assert rules_in(
            "def f(items):\n"
            "    seen = set(items)\n"
            "    return len(seen)\n"
            "def g(seen):\n"
            "    for x in seen:\n"
            "        use(x)\n"
            "def h(items):\n"
            "    order = list(items)\n"
            "    for x in order:\n"
            "        use(x)\n"
        ) == []

    def test_nested_function_has_its_own_scope(self):
        assert rules_in(
            "def outer(items):\n"
            "    def inner(seen):\n"
            "        for x in seen:\n"
            "            use(x)\n"
            "    seen = set(items)\n"
            "    return inner(sorted(seen))\n"
        ) == []

    def test_allow_marker_suppresses(self):
        assert rules_in(
            "def f(items):\n"
            "    seen = set(items)\n"
            "    for x in seen:  # detlint: allow - order-free\n"
            "        use(x)\n"
        ) == []


class TestRandomness:
    def test_global_random_flagged(self):
        assert rules_in(
            "import random\nx = random.random()\n"
        ) == ["DL103"]

    def test_global_shuffle_flagged(self):
        assert rules_in(
            "import random\nrandom.shuffle(deck)\n"
        ) == ["DL103"]

    def test_unseeded_random_instance_flagged(self):
        assert rules_in(
            "import random\nrng = random.Random()\n"
        ) == ["DL103"]

    def test_seeded_random_instance_not_flagged(self):
        assert rules_in(
            "import random\nrng = random.Random(7)\n"
        ) == []


class TestSuppression:
    def test_allow_marker_suppresses(self):
        assert rules_in(
            "import time\n"
            "wall = time.perf_counter()  # detlint: allow\n"
        ) == []

    def test_marker_only_covers_its_line(self):
        source = (
            "import time\n"
            "a = time.time()  # detlint: allow\n"
            "b = time.time()\n"
        )
        findings = detlint.check_source("<test>", source)
        assert [f.line for f in findings] == [3]


class TestShippedModulesClean:
    def test_default_targets_exist_and_pass(self):
        for rel in detlint.DEFAULT_TARGETS:
            path = REPO_ROOT / rel
            assert path.exists(), rel
            assert detlint.check_file(path) == [], rel
