"""Delayed-isolation epidemic models: trajectory integration, critical
response thresholds, endemic-state prediction via conserved quantities,
spectral stability analysis, and a stochastic network oracle."""

__version__ = "0.1.0"

from .dde_core import (DEFAULT_STEP, History, Trajectory, constant_history,
                       integrate)
from .equilibria import (EndemicPoint, Thresholds, critical_identification_time,
                         critical_probability, critical_time_days,
                         effective_R, endemic_point,
                         predict_endemic_from_history, q_critical,
                         tau_critical_at_q, thresholds)
from .errors import SiqError
from .net_sim import (MeanFieldMap, Network, NetworkSeries, NetworkStats,
                      SimConfig, average_runs, complete_network,
                      erdos_renyi_network, mean_field_params,
                      network_from_edge_list, simulate_network)
from .siq_model import (DiseaseSpec, ModelParams, ValidationReport,
                        conserved_H, conserved_H_star, leaf_labels,
                        load_disease_table, outbreak_history, simulate,
                        validate_history)
from .spectral import (CharEq, HopfData, SpectralReport, StabilityMap,
                       axis_crossings, count_unstable, disease_free_chareq,
                       endemic_chareq, hopf_crossings, stability_map)
