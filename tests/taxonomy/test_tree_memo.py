"""Tests for the taxonomy tree's shared memo layer.

``path_length``/``nodes_within``/``max_depth`` carry tree-level memos
that every similarity consumer (the matching engine, the context audit,
LCH scoring) shares.  These tests pin the memoised answers to the
uncached walks and the invalidation-on-growth contract.
"""

import itertools

import pytest

from repro.taxonomy.lexicon import build_default_lexicon
from repro.taxonomy.tree import TaxonomyError, TaxonomyTree


@pytest.fixture
def tree():
    instance = TaxonomyTree("entity")
    instance.add_path("sports", "football", "la-liga")
    instance.add_path("sports", "tennis")
    instance.add_path("food", "recipes")
    return instance


class TestPathLengthMemo:
    def test_matches_uncached_for_all_pairs(self, tree):
        for a, b in itertools.product(tree, repeat=2):
            assert tree.path_length(a, b) == tree.path_length_uncached(a, b)

    def test_symmetric_key_normalisation(self, tree):
        assert tree.path_length("la-liga", "recipes") == \
            tree.path_length("recipes", "la-liga")
        assert len(tree._path_cache) == 1

    def test_invalidated_on_add(self, tree):
        tree.path_length("football", "tennis")
        assert tree._path_cache
        tree.add("padel", "sports")
        assert not tree._path_cache
        assert tree.path_length("padel", "tennis") == 2


class TestNodesWithin:
    def test_radius_zero_is_self(self, tree):
        assert tree.nodes_within("football", 0) == frozenset({"football"})

    def test_radius_one_is_parent_and_children(self, tree):
        assert tree.nodes_within("football", 1) == \
            frozenset({"football", "sports", "la-liga"})

    def test_large_radius_reaches_whole_tree(self, tree):
        assert tree.nodes_within("la-liga", 10) == frozenset(tree)

    def test_membership_iff_path_length_within(self, tree):
        # The set-index form must agree with the pairwise criterion it
        # replaces, for every node and every radius up to the diameter.
        for name in tree:
            for radius in range(6):
                neighborhood = tree.nodes_within(name, radius)
                for other in tree:
                    expected = tree.path_length_uncached(name, other) <= radius
                    assert (other in neighborhood) == expected

    def test_membership_iff_path_length_on_default_taxonomy(self):
        tree = build_default_lexicon().tree
        nodes = list(tree)
        for name in nodes[::7]:
            for radius in (0, 1, 2):
                neighborhood = tree.nodes_within(name, radius)
                for other in nodes:
                    expected = tree.path_length_uncached(name, other) <= radius
                    assert (other in neighborhood) == expected

    def test_negative_radius_rejected(self, tree):
        with pytest.raises(TaxonomyError):
            tree.nodes_within("sports", -1)

    def test_unknown_node_rejected(self, tree):
        with pytest.raises(TaxonomyError):
            tree.nodes_within("cricket", 1)

    def test_invalidated_on_add(self, tree):
        before = tree.nodes_within("sports", 1)
        assert "padel" not in before
        tree.add("padel", "sports")
        assert not tree._neighborhood_cache
        assert "padel" in tree.nodes_within("sports", 1)

    def test_memoised_answer_is_stable(self, tree):
        first = tree.nodes_within("football", 1)
        assert tree.nodes_within("football", 1) is first


class TestMaxDepthMemo:
    def test_cached_and_invalidated(self, tree):
        assert tree.max_depth == 4
        assert tree._max_depth_cache == 4
        tree.add("champions-league", "la-liga")
        assert tree._max_depth_cache is None
        assert tree.max_depth == 5
