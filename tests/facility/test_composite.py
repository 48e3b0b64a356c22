"""Tests for the tenant-namespaced composite workflow."""

import pytest

from repro.core.spec import WorkflowError
from repro.facility.composite import CompositeWorkflow

from .conftest import small_workflow


class TestExtend:
    def test_namespacing(self):
        comp = CompositeWorkflow()
        task_ids, file_names = comp.add_submission("alice", "alice.0",
                                           small_workflow())
        assert all(t.startswith("alice.0/") for t in task_ids)
        assert all(f.startswith("alice.0/") for f in file_names)
        # renamed consistently: tasks reference prefixed files
        task = comp.tasks["alice.0/proc-0"]
        assert task.inputs == ("alice.0/chunk-0",)
        assert task.outputs == ("alice.0/partial-0",)

    def test_two_tenants_never_collide(self):
        comp = CompositeWorkflow()
        a, _ = comp.add_submission("alice", "alice.0", small_workflow())
        b, _ = comp.add_submission("bob", "bob.0", small_workflow())
        assert set(a).isdisjoint(b)
        assert len(comp.tasks) == len(a) + len(b)

    def test_duplicate_submission_id_rejected(self):
        comp = CompositeWorkflow()
        comp.add_submission("alice", "alice.0", small_workflow())
        with pytest.raises(WorkflowError):
            comp.add_submission("alice", "alice.0", small_workflow())

    def test_derived_state_is_live(self):
        """The manager takes the containers once; later submissions
        must show up in the same objects."""
        comp = CompositeWorkflow()
        consumers, final = comp.consumers, comp.final
        comp.add_submission("alice", "alice.0", small_workflow())
        assert consumers["alice.0/partial-0"] == ["alice.0/accum"]
        comp.add_submission("bob", "bob.0", small_workflow())
        assert consumers["bob.0/partial-0"] == ["bob.0/accum"]
        assert list(final) == ["alice.0/result", "bob.0/result"]

    def test_dependency_wiring(self):
        comp = CompositeWorkflow()
        comp.add_submission("alice", "alice.0", small_workflow(n_proc=2))
        assert comp.task_dependencies("alice.0/accum") == {
            "alice.0/proc-0", "alice.0/proc-1"}
        # proc-0's dependents: the consumers of its output
        assert comp.consumers["alice.0/partial-0"] == ["alice.0/accum"]
        assert set(comp.initial_ready()) == {
            "alice.0/proc-0", "alice.0/proc-1"}


class TestTenancy:
    def test_tenant_and_submission_lookup(self):
        comp = CompositeWorkflow()
        comp.add_submission("alice", "alice.0", small_workflow())
        comp.add_submission("alice", "alice.1", small_workflow())
        assert comp.tenant_of("alice.1/accum") == "alice"
        assert comp.submission_of("alice.1/accum") == "alice.1"
        assert comp.tenant_of_file("alice.0/chunk-0") == "alice"
        assert comp.tenant_of_file("unknown") is None


class TestContentIndex:
    def test_identical_dags_are_equivalent(self):
        """Same bytes under two namespaces: each physical name lists
        the other as a content-equivalent replica."""
        comp = CompositeWorkflow()
        comp.add_submission("alice", "alice.0", small_workflow())
        comp.add_submission("bob", "bob.0", small_workflow())
        assert comp.equivalents("alice.0/chunk-0") == ["bob.0/chunk-0"]
        assert comp.equivalents("bob.0/chunk-0") == ["alice.0/chunk-0"]

    def test_cachenames_are_tenant_visible(self):
        """Physical files keep the cachenames their own SimWorkflow
        computed from unprefixed names, discovered outputs included."""
        own = small_workflow()
        comp = CompositeWorkflow()
        comp.add_submission("alice", "alice.0", small_workflow())
        for name, visible in own.cachenames.items():
            assert comp.cachenames["alice.0/" + name] == visible
        own.register_dynamic("accum", "extra.root", 2e6)
        assert comp.register_dynamic("alice.0/accum",
                                     "alice.0/extra.root", 2e6)
        assert (comp.cachenames["alice.0/extra.root"]
                == own.cachenames["extra.root"])
        assert comp.tenant_of_file("alice.0/extra.root") == "alice"
        assert comp.final_files()[-1] == "alice.0/extra.root"

    def test_different_dags_are_not_equivalent(self):
        comp = CompositeWorkflow()
        comp.add_submission("alice", "alice.0", small_workflow(chunk=50e6))
        comp.add_submission("bob", "bob.0", small_workflow(chunk=60e6))
        assert comp.equivalents("alice.0/chunk-0") == []

    def test_final_files_union(self):
        comp = CompositeWorkflow()
        comp.add_submission("alice", "alice.0", small_workflow())
        comp.add_submission("bob", "bob.0", small_workflow())
        assert comp.final_files() == ["alice.0/result", "bob.0/result"]
