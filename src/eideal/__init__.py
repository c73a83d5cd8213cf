"""Homological and combinatorial invariants of graph edge ideals, plus a
Monte Carlo experiment harness for random graphs and random trees."""

__version__ = "0.1.0"

from .graph_core import (Graph, build_graph, complement, complete_graph,
                         connected_components, cycle_graph,
                         delete_closed_neighborhood, empty_graph,
                         enumerate_graphs, from_edge_list_text, from_hex_dump,
                         induced_subgraph, max_degree, path_graph, star_graph,
                         to_edge_list_text, to_hex_dump)
from .random_models import (ParamSchedule, sample_gnp, sample_gw_tree,
                            schedule_p, substream_seed)
from .chordality import (count_chordless_cycles, has_induced_c4,
                         is_4_cochordal, is_chordal, is_cochordal,
                         is_locally_4_cochordal, is_locally_cochordal)
from .comb_invariants import (BudgetExceededError, CoverProfile,
                              cover_profile, independence_number,
                              induced_matching_number, matching_number,
                              tree_induced_matching)
from .betti import (BettiTable, InvariantBundle, SizeGuardExceeded,
                    betti_table, has_linear_presentation,
                    has_linear_resolution, induced_betti_tables, invariants,
                    linear_flags, pd_componentwise, reg_pd_componentwise,
                    regularity_componentwise)
from .asymptotics import (TheoryValue, expected_chordless_cycles,
                          expected_local_cycles, gw_limit_estimate,
                          karp_sipser_upper, mcdiarmid_tail,
                          near_lipschitz_tail, prob_lp_dense_window,
                          prob_lr_dense_window, prob_lr_sparse_window)
