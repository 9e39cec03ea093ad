"""Partial structural balance for signed directed networks.

The toolkit ingests scored edge records, builds a clean signed digraph,
enumerates its triads by the 16-class MAN census, extracts the transitive
triples of the four transitive triad types, and reports partial,
non-partial and undirected balance figures alongside sign-composition
tables and descriptive network measures.
"""

__version__ = "0.1.0"

from .balance import (BALANCE_MODES, BalanceReport, TriadBalance, TypeBalance,
                      aggregate_type_mean, build_report, nonpartial_balance,
                      overall_balance, triad_balance, triple_is_balanced,
                      type_balance, undirected_balance)
from .census import (TRANSITIVE_TYPES, TRIAD_TYPES, TRIPLES_PER_TYPE,
                     CensusTable, Triad, TriadTallies, Triple, census,
                     classify_man, enumerate_triads, scan_triads,
                     tallies_of, transitive_triples)
from .errors import (FormatError, NonTransitiveTriadError, ParseError,
                     UndefinedResultError)
from .graphs import (EdgeColumns, PreprocessConfig, SignedDigraph, build_graph,
                     dump_tsv, load_edge_records, load_tsv, preprocess,
                     project_undirected)
from .oracle import OracleResult, brute_force, random_signed_digraph
from .signstats import (CompositionTable, GraphMetrics, composition_directed,
                        composition_undirected, metrics)

__all__ = [name for name in dir() if not name.startswith("_")]
