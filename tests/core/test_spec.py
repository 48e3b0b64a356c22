"""Unit tests for SimWorkflow validation and structure."""

import pytest

from repro.core.files import FileKind, SimFile, cachename
from repro.core.spec import SimTask, SimWorkflow, WorkflowError


def make_simple():
    files = [
        SimFile("in", 100, FileKind.INPUT),
        SimFile("mid", 10, FileKind.INTERMEDIATE),
        SimFile("out", 1, FileKind.OUTPUT),
    ]
    tasks = [
        SimTask(id="a", compute=1.0, inputs=("in",), outputs=("mid",)),
        SimTask(id="b", compute=1.0, inputs=("mid",), outputs=("out",)),
    ]
    return SimWorkflow(tasks, files)


class TestCachenames:
    def test_stable(self):
        assert cachename("f", 100) == cachename("f", 100)

    def test_size_changes_name(self):
        assert cachename("f", 100) != cachename("f", 101)

    def test_lineage_changes_name(self):
        assert (cachename("f", 100, ["a"])
                != cachename("f", 100, ["b"]))
        assert (cachename("f", 100, [])
                != cachename("f", 100, ["a"]))

    def test_workflow_assigns_all(self):
        wf = make_simple()
        assert set(wf.cachenames) == {"in", "mid", "out"}
        # downstream names incorporate upstream identity
        assert wf.cachenames["out"] != wf.cachenames["mid"]


class TestValidation:
    def test_duplicate_task_rejected(self):
        files = [SimFile("in", 1, FileKind.INPUT)]
        tasks = [SimTask(id="a", compute=1, inputs=("in",)),
                 SimTask(id="a", compute=1, inputs=("in",))]
        with pytest.raises(WorkflowError, match="duplicate task"):
            SimWorkflow(tasks, files)

    def test_duplicate_file_rejected(self):
        with pytest.raises(WorkflowError, match="duplicate file"):
            SimWorkflow([], [SimFile("f", 1, FileKind.INPUT),
                             SimFile("f", 2, FileKind.INPUT)])

    def test_unknown_input_rejected(self):
        with pytest.raises(WorkflowError, match="unknown file"):
            SimWorkflow([SimTask(id="a", compute=1, inputs=("ghost",))],
                        [])

    def test_double_producer_rejected(self):
        files = [SimFile("mid", 1, FileKind.INTERMEDIATE)]
        tasks = [SimTask(id="a", compute=1, outputs=("mid",)),
                 SimTask(id="b", compute=1, outputs=("mid",))]
        with pytest.raises(WorkflowError, match="produced twice"):
            SimWorkflow(tasks, files)

    def test_produced_input_rejected(self):
        files = [SimFile("in", 1, FileKind.INPUT)]
        tasks = [SimTask(id="a", compute=1, outputs=("in",))]
        with pytest.raises(WorkflowError, match="cannot be produced"):
            SimWorkflow(tasks, files)

    def test_orphan_intermediate_rejected(self):
        with pytest.raises(WorkflowError, match="no producer"):
            SimWorkflow([], [SimFile("mid", 1, FileKind.INTERMEDIATE)])

    def test_cycle_rejected(self):
        files = [SimFile("x", 1, FileKind.INTERMEDIATE),
                 SimFile("y", 1, FileKind.INTERMEDIATE)]
        tasks = [SimTask(id="a", compute=1, inputs=("y",), outputs=("x",)),
                 SimTask(id="b", compute=1, inputs=("x",), outputs=("y",))]
        with pytest.raises(WorkflowError, match="cycle"):
            SimWorkflow(tasks, files)

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            SimTask(id="a", compute=-1)

    def test_negative_file_size_rejected(self):
        with pytest.raises(ValueError):
            SimFile("f", -5)

    def test_bad_file_kind_rejected(self):
        with pytest.raises(ValueError):
            SimFile("f", 5, "magic")


class TestStructure:
    def test_dependencies(self):
        wf = make_simple()
        assert wf.task_dependencies("a") == set()
        assert wf.task_dependencies("b") == {"a"}

    def test_dependents(self):
        """A task's dependents are the consumers of its outputs."""
        wf = make_simple()
        assert wf.consumers == {"in": ["a"], "mid": ["b"], "out": []}
        assert wf.producer == {"mid": "a", "out": "b"}

    def test_initial_ready(self):
        wf = make_simple()
        assert wf.initial_ready() == ["a"]

    def test_final_files(self):
        wf = make_simple()
        assert wf.final_files() == ["out"]

    def test_byte_totals(self):
        wf = make_simple()
        assert wf.total_input_bytes() == 100
        assert wf.total_intermediate_bytes() == 10

    def test_categories(self):
        wf = make_simple()
        assert wf.categories() == {"proc"}

    def test_len(self):
        assert len(make_simple()) == 2


def fan_out(n_leaves, prefix=""):
    """One root writes a file that ``n_leaves`` leaves read."""
    files = [SimFile(f"{prefix}in", 100, FileKind.INPUT),
             SimFile(f"{prefix}mid", 10, FileKind.INTERMEDIATE)]
    tasks = [SimTask(id=f"{prefix}root", compute=1.0,
                     inputs=(f"{prefix}in",), outputs=(f"{prefix}mid",))]
    for i in range(n_leaves):
        files.append(SimFile(f"{prefix}out-{i}", 1, FileKind.OUTPUT))
        tasks.append(SimTask(id=f"{prefix}leaf-{i}", compute=1.0,
                             inputs=(f"{prefix}mid",),
                             outputs=(f"{prefix}out-{i}",)))
    return tasks, files


def derived(wf):
    """A snapshot (copies, not the live containers) of the DAG state."""
    return (list(wf.tasks), list(wf.files), dict(wf.producer),
            {name: list(users) for name, users in wf.consumers.items()},
            wf.final_files(), dict(wf.cachenames))


class TestExtend:
    def test_consumers_keep_insertion_order(self):
        # ids chosen so that no sorted or hashed order matches
        names = ["leaf-7", "leaf-2", "leaf-9", "leaf-0", "leaf-5"]
        files = [SimFile("in", 1, FileKind.INPUT)]
        tasks = [SimTask(id=n, compute=1, inputs=("in",)) for n in names]
        wf = SimWorkflow(tasks, files)
        assert wf.consumers["in"] == names

    def test_growth_equals_one_build(self):
        a_tasks, a_files = fan_out(3, "a/")
        b_tasks, b_files = fan_out(2, "b/")
        grown = SimWorkflow(a_tasks, a_files)
        grown.extend(b_tasks, b_files)
        whole = SimWorkflow(a_tasks + b_tasks, a_files + b_files)
        assert derived(grown) == derived(whole)

    def test_reading_an_existing_file_makes_it_non_final(self):
        wf = make_simple()
        held = wf.final
        wf.extend([SimTask(id="c", compute=1, inputs=("out",),
                           outputs=("plot",))],
                  [SimFile("plot", 1, FileKind.OUTPUT)])
        assert wf.consumers["out"] == ["c"]
        assert wf.final_files() == ["plot"]
        assert held is wf.final  # readers holding the dict see growth
        assert wf.initial_ready() == ["a"]

    def test_rejected_extension_changes_nothing(self):
        wf = make_simple()
        before = derived(wf)
        # valid new files, then a cycle among the new tasks
        files = [SimFile("x", 1, FileKind.INTERMEDIATE),
                 SimFile("y", 1, FileKind.INTERMEDIATE)]
        tasks = [SimTask(id="c", compute=1, inputs=("mid", "y"),
                         outputs=("x",)),
                 SimTask(id="d", compute=1, inputs=("x",),
                         outputs=("y",))]
        with pytest.raises(WorkflowError, match="cycle"):
            wf.extend(tasks, files)
        assert derived(wf) == before
        with pytest.raises(WorkflowError, match="produced twice"):
            wf.extend([SimTask(id="e", compute=1, outputs=("mid",))], [])
        assert derived(wf) == before

    def test_existing_names_rejected(self):
        wf = make_simple()
        with pytest.raises(WorkflowError, match="duplicate task"):
            wf.extend([SimTask(id="a", compute=1)], [])
        with pytest.raises(WorkflowError, match="duplicate file"):
            wf.extend([], [SimFile("in", 1, FileKind.INPUT)])
        with pytest.raises(WorkflowError, match="cannot be produced"):
            wf.extend([SimTask(id="e", compute=1, outputs=("in",))], [])

    def test_dynamic_output_joins_final_files(self):
        wf = make_simple()
        assert wf.register_dynamic("b", "extra", 5)
        assert not wf.register_dynamic("b", "extra", 5)
        assert wf.final_files() == ["out", "extra"]
        assert wf.producer["extra"] == "b"
        assert wf.consumers["extra"] == []
