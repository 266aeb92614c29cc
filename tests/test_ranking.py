"""Tests for the Ranking and RankingSet value types."""

import pytest

from repro.core.errors import (
    DuplicateItemError,
    InvalidRankingError,
    RankingSizeMismatchError,
)
from repro.core.ranking import Ranking, RankingSet


class TestRanking:
    def test_items_preserved_in_order(self):
        ranking = Ranking([2, 5, 4, 3])
        assert ranking.items == (2, 5, 4, 3)

    def test_size(self):
        assert Ranking([1, 2, 3]).size == 3

    def test_rank_of_contained_item(self):
        ranking = Ranking([2, 5, 4, 3])
        assert ranking.rank_of(2) == 0
        assert ranking.rank_of(3) == 3

    def test_rank_of_missing_item_raises_without_default(self):
        with pytest.raises(KeyError):
            Ranking([1, 2, 3]).rank_of(99)

    def test_rank_of_missing_item_with_default(self):
        ranking = Ranking([1, 2, 3])
        assert ranking.rank_of(99, default=ranking.size) == 3

    def test_contains(self):
        ranking = Ranking([1, 2, 3])
        assert 2 in ranking
        assert 9 not in ranking

    def test_domain(self):
        assert Ranking([3, 1, 2]).domain == frozenset({1, 2, 3})

    def test_iteration_and_len(self):
        ranking = Ranking([4, 5, 6])
        assert list(ranking) == [4, 5, 6]
        assert len(ranking) == 3

    def test_getitem(self):
        assert Ranking([4, 5, 6])[1] == 5

    def test_duplicate_items_rejected(self):
        with pytest.raises(DuplicateItemError):
            Ranking([1, 2, 1])

    def test_empty_ranking_rejected(self):
        with pytest.raises(InvalidRankingError):
            Ranking([])

    def test_equality_ignores_rid(self):
        assert Ranking([1, 2, 3], rid=4) == Ranking([1, 2, 3], rid=9)

    def test_equality_respects_order(self):
        assert Ranking([1, 2, 3]) != Ranking([3, 2, 1])

    def test_hashable(self):
        assert len({Ranking([1, 2]), Ranking([1, 2]), Ranking([2, 1])}) == 2

    def test_overlap_symmetric(self):
        left = Ranking([1, 2, 3, 4])
        right = Ranking([3, 4, 5, 6])
        assert left.overlap(right) == right.overlap(left) == 2

    def test_overlap_disjoint(self):
        assert Ranking([1, 2]).overlap(Ranking([3, 4])) == 0

    def test_with_rid_copies(self):
        original = Ranking([1, 2, 3])
        copy = original.with_rid(7)
        assert copy.rid == 7
        assert original.rid is None
        assert copy == original

    def test_rank_map_is_copy(self):
        ranking = Ranking([1, 2, 3])
        mapping = ranking.rank_map()
        mapping[1] = 99
        assert ranking.rank_of(1) == 0

    def test_repr_contains_items(self):
        assert "[1, 2, 3]" in repr(Ranking([1, 2, 3]))

    def test_rank_map_is_built_on_first_lookup(self):
        ranking = Ranking([4, 5, 6])
        assert ranking._ranks is None  # a ranking that is only validated never builds it
        assert ranking.domain == {4, 5, 6} and ranking._ranks is None
        assert 5 in ranking and ranking.rank_of(6) == 2
        assert ranking._ranks == {4: 0, 5: 1, 6: 2}

    def test_duplicate_named_without_a_rank_map(self):
        with pytest.raises(DuplicateItemError, match="item 7"):
            Ranking([7, 8, 9, 7])


class TestRankingSet:
    def test_from_lists_assigns_dense_ids(self):
        rankings = RankingSet.from_lists([[1, 2], [3, 4], [5, 6]])
        assert [ranking.rid for ranking in rankings] == [0, 1, 2]

    def test_k_inferred_from_first_ranking(self):
        rankings = RankingSet.from_lists([[1, 2, 3]])
        assert rankings.k == 3

    def test_k_mismatch_rejected(self):
        rankings = RankingSet.from_lists([[1, 2, 3]])
        with pytest.raises(RankingSizeMismatchError):
            rankings.add([1, 2])

    def test_empty_set_has_no_k(self):
        with pytest.raises(InvalidRankingError):
            RankingSet().k

    def test_explicit_k_enforced(self):
        rankings = RankingSet(k=3)
        with pytest.raises(RankingSizeMismatchError):
            rankings.add([1, 2])

    def test_getitem_by_rid(self):
        rankings = RankingSet.from_lists([[1, 2], [3, 4]])
        assert rankings[1].items == (3, 4)

    def test_len_and_iter(self):
        rankings = RankingSet.from_lists([[1, 2], [3, 4]])
        assert len(rankings) == 2
        assert [ranking.items for ranking in rankings] == [(1, 2), (3, 4)]

    def test_item_domain(self):
        rankings = RankingSet.from_lists([[1, 2], [2, 3]])
        assert rankings.item_domain() == {1, 2, 3}

    def test_item_frequencies(self):
        rankings = RankingSet.from_lists([[1, 2], [2, 3], [2, 4]])
        frequencies = rankings.item_frequencies()
        assert frequencies[2] == 3
        assert frequencies[1] == 1

    def test_contains_ranking(self):
        rankings = RankingSet.from_lists([[1, 2], [3, 4]])
        assert Ranking([3, 4]) in rankings
        assert Ranking([4, 3]) not in rankings
        assert "not a ranking" not in rankings

    def test_from_rankings(self):
        source = [Ranking([1, 2]), Ranking([3, 4])]
        rankings = RankingSet.from_rankings(source)
        assert len(rankings) == 2
        assert rankings[0].rid == 0

    def test_add_returns_stored_copy_with_rid(self):
        rankings = RankingSet()
        stored = rankings.add([5, 6])
        assert stored.rid == 0
        assert stored.items == (5, 6)

    @pytest.mark.parametrize("k", [[[1, 2, 3], [4, 5, 6]], 2.0, "3", True, 0, -1])
    def test_k_that_is_not_a_positive_int_rejected(self, k):
        # RankingSet([[1, 2, 3], [4, 5, 6]]) used to be an empty set whose k was the list
        with pytest.raises(InvalidRankingError, match="ranking size k"):
            RankingSet(k)

    def test_repr_mentions_size(self):
        rankings = RankingSet.from_lists([[1, 2]])
        assert "n=1" in repr(rankings)
