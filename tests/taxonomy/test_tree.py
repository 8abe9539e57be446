"""Tests for repro.taxonomy.tree."""

import pytest

from repro.taxonomy.tree import TaxonomyError, TaxonomyTree


@pytest.fixture
def tree():
    t = TaxonomyTree("entity")
    t.add("sports", "entity")
    t.add("football", "sports")
    t.add("la-liga", "football")
    t.add("basketball", "sports")
    t.add("science", "entity")
    t.add("research", "science")
    return t


class TestStructure:
    def test_root_depth_is_one(self, tree):
        assert tree.depth("entity") == 1

    def test_child_depths(self, tree):
        assert tree.depth("sports") == 2
        assert tree.depth("la-liga") == 4

    def test_max_depth(self, tree):
        assert tree.max_depth == 4

    def test_contains_and_len(self, tree):
        assert "football" in tree
        assert "hockey" not in tree
        assert len(tree) == 7

    def test_parent_and_children(self, tree):
        assert tree.parent("football") == "sports"
        assert tree.parent("entity") is None
        assert set(tree.children("sports")) == {"football", "basketball"}

    def test_duplicate_node_rejected(self, tree):
        with pytest.raises(TaxonomyError):
            tree.add("football", "entity")

    def test_unknown_parent_rejected(self, tree):
        with pytest.raises(TaxonomyError):
            tree.add("golf", "nonexistent")

    def test_empty_name_rejected(self):
        with pytest.raises(TaxonomyError):
            TaxonomyTree("")
        tree = TaxonomyTree("r")
        with pytest.raises(TaxonomyError):
            tree.add("", "r")

    def test_unknown_node_queries_raise(self, tree):
        for method in (tree.depth, tree.parent, tree.children,
                       tree.ancestors, tree.subtree):
            with pytest.raises(TaxonomyError):
                method("nonexistent")


class TestAddPath:
    def test_creates_missing_chain(self):
        tree = TaxonomyTree("entity")
        tree.add_path("a", "b", "c")
        assert tree.depth("c") == 4

    def test_extends_existing_chain(self):
        tree = TaxonomyTree("entity")
        tree.add_path("a", "b")
        tree.add_path("a", "b", "c")
        assert "c" in tree
        assert len(tree) == 4

    def test_conflicting_parent_rejected(self):
        tree = TaxonomyTree("entity")
        tree.add_path("a", "b")
        with pytest.raises(TaxonomyError):
            tree.add_path("x", "b")


class TestPaths:
    def test_ancestors_of_leaf(self, tree):
        assert tree.ancestors("la-liga") == ["la-liga", "football", "sports",
                                             "entity"]

    def test_lca_of_siblings(self, tree):
        assert tree.lowest_common_ancestor("football", "basketball") == "sports"

    def test_lca_crossing_root(self, tree):
        assert tree.lowest_common_ancestor("la-liga", "research") == "entity"

    def test_lca_of_node_with_itself(self, tree):
        assert tree.lowest_common_ancestor("football", "football") == "football"

    def test_lca_with_ancestor(self, tree):
        assert tree.lowest_common_ancestor("la-liga", "sports") == "sports"

    def test_path_length_edges(self, tree):
        assert tree.path_length("football", "football") == 0
        assert tree.path_length("football", "basketball") == 2
        assert tree.path_length("la-liga", "research") == 5
        assert tree.path_length("football", "sports") == 1

    def test_path_length_symmetric(self, tree):
        assert tree.path_length("la-liga", "research") == \
            tree.path_length("research", "la-liga")


class TestTraversal:
    def test_subtree_preorder(self, tree):
        assert tree.subtree("sports") == ["sports", "football", "la-liga",
                                          "basketball"]

    def test_subtree_of_leaf_is_itself(self, tree):
        assert tree.subtree("research") == ["research"]

    def test_iteration_covers_all_nodes(self, tree):
        assert set(tree) == {"entity", "sports", "football", "la-liga",
                             "basketball", "science", "research"}
