"""Every count, letter, site, seed and pair position goes through
floats._check_int: a value that is no integer raises ValidationError naming
the input, and a numpy integer gives the result of the Python int it stands
for, bit for bit."""

import re

import numpy as np
import pytest

from qtwick import (
    ExperimentConfig, FockParams, PairPartition, ValidationError, build_jw, check_commutation,
    convergence_experiment, derive_seed, enumerate_counted_pairings, enumerate_pair_partitions,
    gram_matrix, inner_product, limit_coefficient_estimate, normal_order, partial_sum_moment,
    sample_packed, sample_ranks, sampled_table, vacuum_expectation, vacuum_moment, wick_field,
)
from qtwick.fock import commutator_residual

P = FockParams(2, 3, 0.5, 1.25)
TABLE = sampled_table(10, 0.5, 1.25, 3)
CROSSING = PairPartition(((1, 3), (2, 4)))
FLOAT_SIZES = ExperimentConfig("moment", "1*", 0.5, 1.25, (2.5, 4.0), 0)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: vacuum_moment([("annihilate", 1.5), ("create", 1.5)], P), "letter",
                 id="vacuum_moment"),
    pytest.param(lambda: inner_product({(1.5,): 1.0}, {(1.5,): 1.0}, P), "letter",
                 id="inner_product"),
    pytest.param(lambda: vacuum_expectation([(2.5, False), (2.5, True)], 4, TABLE), "site",
                 id="vacuum_expectation"),
    pytest.param(lambda: partial_sum_moment(2.5, "1*", TABLE), "n_sites",
                 id="partial_sum_moment"),
    pytest.param(lambda: check_commutation(2.5, TABLE), "n", id="check_commutation"),
    pytest.param(lambda: gram_matrix(2.0, P), "n", id="gram_matrix"),
    pytest.param(lambda: TABLE.base_value(1.5, 2), "i", id="base_value"),
    pytest.param(lambda: limit_coefficient_estimate(CROSSING, "11**", 3.0, TABLE), "n_sites",
                 id="limit_coefficient_estimate"),
    pytest.param(lambda: sample_packed(2.5, 0.5, 1.25, 0), "n", id="sample_packed"),
    pytest.param(lambda: wick_field(2.5), "n", id="wick_field"),
    pytest.param(lambda: enumerate_pair_partitions(2.5), "n", id="enumerate_pair_partitions"),
    pytest.param(lambda: build_jw(4, 2.0, TABLE), "site", id="build_jw"),
    pytest.param(lambda: sample_packed(4, 0.5, 1.25, 2.0), "seed", id="sample_packed_seed"),
    pytest.param(lambda: sampled_table(4, 0.5, 1.25, 2.0), "seed", id="sampled_table_seed"),
    pytest.param(lambda: sample_ranks([0], 0.5, 1.25, 2.0), "seed", id="sample_ranks_seed"),
    pytest.param(lambda: derive_seed(2.0, 0), "seed", id="derive_seed"),
    pytest.param(lambda: derive_seed(3, 2.0), "k", id="derive_seed_k"),
    pytest.param(lambda: PairPartition(((1.0, 3.0), (2.0, 4.0))), "position", id="PairPartition"),
])
def test_a_count_letter_or_site_that_is_no_integer_is_refused_by_name(call, name):
    with pytest.raises(ValidationError, match=rf"^need an integer {name}, got {name}=\d\.\d$"):
        call()


def test_a_float_size_is_a_problem_of_the_experiment():
    line = "ns (2.5, 4.0) must be strictly increasing positive integers"
    assert FLOAT_SIZES.validate() == [line]
    with pytest.raises(ValidationError, match=f"^{re.escape(line)}$"):
        convergence_experiment(FLOAT_SIZES)


@pytest.mark.parametrize("seed", [2.0, "3"])
def test_a_seed_that_is_no_integer_is_refused_before_anything_is_drawn(seed):
    line = f"need an integer seed, got seed={seed!r}"
    config = ExperimentConfig("moment", "1*", 0.5, 1.25, (4,), seed)
    assert config.validate() == [line]
    for call in (lambda: convergence_experiment(config), lambda: sampled_table(1, 0.5, 1.25, seed),
                 lambda: sample_packed(1, 0.5, 1.25, seed)):
        with pytest.raises(ValidationError, match=f"^{re.escape(line)}$"):
            call()


def test_pair_positions_are_stored_as_python_ints():
    pairing = PairPartition(((np.int64(3), np.int64(1)), (np.uint8(2), np.int64(4))))
    assert pairing.pairs == ((1, 3), (2, 4))
    assert {type(x) for pair in pairing.pairs for x in pair} == {int}


def _results(conv):
    """Each engine on integers made by conv, as bytes-exact keys."""
    p = FockParams(conv(2), conv(5), 0.5, 1.25)
    table = sampled_table(conv(30), 0.5, 1.25, conv(3))
    word = [(conv(3), False), (conv(7), False), (conv(7), True), (conv(3), True)]
    crossing = PairPartition(((conv(1), conv(3)), (conv(2), conv(4))))
    experiments = [ExperimentConfig(mode, "11**", 0.5, 1.25, (conv(10), conv(20)), conv(4),
                                    pairing)
                   for mode, pairing in (("moment", None), ("lambda", crossing))]
    values = [
        vacuum_moment([("field", conv(1)), ("annihilate", conv(2)), ("number",),
                       ("create", conv(2)), ("field", conv(1))], p),
        inner_product({(conv(1), conv(2)): 1.0}, {(conv(2), conv(1)): 0.5}, p),
        commutator_residual(conv(1), conv(2), p),
        vacuum_expectation(word, conv(30), table),
        partial_sum_moment(conv(20), "11**", table),
        partial_sum_moment(conv(12), "1*11**", table),
        limit_coefficient_estimate(CROSSING, "11**", conv(20), table),
        limit_coefficient_estimate(PairPartition(((1, 4), (2, 5), (3, 6))), "1*1*1*",
                                   conv(15), table),
        check_commutation(conv(8), table).max_deviation,
        table.base_value(conv(2), conv(5)),
        table.lookup("*", "1", conv(5), conv(2)),
        normal_order([conv(1), conv(2), conv(1), conv(2)], "1*1*", table).beta,
    ]
    values += [row.value for cfg in experiments for row in convergence_experiment(cfg).rows]
    return (
        [x.hex() for x in values],
        gram_matrix(conv(3), p).tobytes(),
        sample_packed(conv(40), 0.5, 1.25, conv(7)).tobytes(),
        sample_ranks([conv(0), conv(5)], 0.5, 1.25, conv(7)).tobytes(),
        derive_seed(conv(3), conv(2)),
        build_jw(conv(6), conv(4), table, True),
        wick_field(conv(4)),
        enumerate_pair_partitions(conv(3)),
        enumerate_counted_pairings(conv(3)),
    )


def test_numpy_integers_give_the_results_of_python_ints_bit_for_bit():
    assert _results(np.int64) == _results(int)
