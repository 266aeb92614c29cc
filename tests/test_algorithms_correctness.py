"""End-to-end correctness: every algorithm returns exactly the true result set.

The ground truth is a brute-force scan computing the Footrule distance of
every indexed ranking.  All twelve registered algorithms are checked on both
dataset presets and on all paper thresholds; reported distances are verified
for every algorithm that reports exact distances (Blocked+Prune may report a
certified upper bound for early-accepted results, so only its result *set* is
checked).
"""

import pytest

from repro.core.distances import footrule_topk, footrule_topk_raw, max_footrule_distance
from repro.core.ranking import Ranking
from repro.algorithms.registry import available_algorithms, make_algorithm
from repro.algorithms.minimal_fv import MinimalFilterValidate

THETAS = (0.0, 0.1, 0.2, 0.3)

#: Coarse variants are built once per module with the paper's tuning.
ALGORITHM_KWARGS = {"Coarse": {"theta_c": 0.3}, "Coarse+Drop": {"theta_c": 0.1}}

#: Algorithms whose reported per-match distances may be certified bounds
#: rather than exact values.
INEXACT_DISTANCE_ALGORITHMS = {"Blocked+Prune", "Blocked+Prune+Drop"}


def brute_force(rankings, query, theta):
    theta_raw = theta * max_footrule_distance(rankings.k)
    return {
        r.rid: footrule_topk(query, r)
        for r in rankings
        if footrule_topk_raw(query, r) <= theta_raw
    }


@pytest.fixture(scope="module")
def algorithms_nyt(nyt_small):
    return {
        name: make_algorithm(name, nyt_small, **ALGORITHM_KWARGS.get(name, {}))
        for name in available_algorithms()
    }


@pytest.fixture(scope="module")
def algorithms_yago(yago_small):
    return {
        name: make_algorithm(name, yago_small, **ALGORITHM_KWARGS.get(name, {}))
        for name in available_algorithms()
    }


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("name", available_algorithms())
class TestResultSetsMatchBruteForce:
    def test_nyt(self, name, theta, algorithms_nyt, nyt_small, nyt_queries):
        algorithm = algorithms_nyt[name]
        for query in nyt_queries[:6]:
            expected = brute_force(nyt_small, query, theta)
            if isinstance(algorithm, MinimalFilterValidate):
                algorithm.prepare(query, theta)
            result = algorithm.search(query, theta)
            assert result.rids == set(expected), f"{name} theta={theta}"
            if name not in INEXACT_DISTANCE_ALGORITHMS:
                for match in result:
                    assert match.distance == pytest.approx(expected[match.rid])

    def test_yago(self, name, theta, algorithms_yago, yago_small, yago_queries):
        algorithm = algorithms_yago[name]
        for query in yago_queries[:6]:
            expected = brute_force(yago_small, query, theta)
            if isinstance(algorithm, MinimalFilterValidate):
                algorithm.prepare(query, theta)
            result = algorithm.search(query, theta)
            assert result.rids == set(expected), f"{name} theta={theta}"


@pytest.mark.parametrize("name", available_algorithms())
class TestCommonBehaviour:
    def test_query_equal_to_indexed_ranking_is_found(self, name, nyt_small, algorithms_nyt):
        algorithm = algorithms_nyt[name]
        query = Ranking(nyt_small[5].items)
        if isinstance(algorithm, MinimalFilterValidate):
            algorithm.prepare(query, 0.0)
        result = algorithm.search(query, 0.0)
        assert 5 in result.rids

    def test_disjoint_query_returns_nothing(self, name, nyt_small, algorithms_nyt):
        algorithm = algorithms_nyt[name]
        domain_max = max(nyt_small.item_domain())
        query = Ranking(list(range(domain_max + 1, domain_max + 1 + nyt_small.k)))
        if isinstance(algorithm, MinimalFilterValidate):
            algorithm.prepare(query, 0.3)
        result = algorithm.search(query, 0.3)
        assert len(result) == 0

    def test_results_sorted_by_distance(self, name, algorithms_nyt, nyt_queries):
        algorithm = algorithms_nyt[name]
        query = nyt_queries[0]
        if isinstance(algorithm, MinimalFilterValidate):
            algorithm.prepare(query, 0.3)
        result = algorithm.search(query, 0.3)
        distances = [match.distance for match in result]
        assert distances == sorted(distances)

    def test_result_monotone_in_theta(self, name, algorithms_nyt, nyt_queries):
        algorithm = algorithms_nyt[name]
        query = nyt_queries[1]
        previous: set[int] = set()
        for theta in THETAS:
            if isinstance(algorithm, MinimalFilterValidate):
                algorithm.prepare(query, theta)
            current = algorithm.search(query, theta).rids
            assert previous <= current
            previous = current

    def test_rejects_invalid_theta(self, name, algorithms_nyt, nyt_queries):
        from repro.core.errors import InvalidThresholdError

        algorithm = algorithms_nyt[name]
        with pytest.raises(InvalidThresholdError):
            algorithm.search(nyt_queries[0], 1.0)
        with pytest.raises(InvalidThresholdError):
            algorithm.search(nyt_queries[0], -0.1)

    def test_rejects_query_of_wrong_size(self, name, algorithms_nyt):
        from repro.core.errors import RankingSizeMismatchError

        algorithm = algorithms_nyt[name]
        with pytest.raises(RankingSizeMismatchError):
            algorithm.search(Ranking([1, 2, 3]), 0.1)

    def test_stats_total_time_recorded(self, name, algorithms_nyt, nyt_queries):
        algorithm = algorithms_nyt[name]
        query = nyt_queries[2]
        if isinstance(algorithm, MinimalFilterValidate):
            algorithm.prepare(query, 0.2)
        result = algorithm.search(query, 0.2)
        assert result.stats.total_seconds > 0.0
        assert result.algorithm == name
