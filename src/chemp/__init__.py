"""Link-level simulator and library for a channel-hardening-exploiting
message passing (CHEMP) receiver in large multiuser MIMO uplinks.

The receiver works on matched-filter statistics (the Hermitian Gram
G = H^H H / N and z = H^H y / N, read through the real stacking J of G),
detects with a damped Gaussian-approximation message passing algorithm,
estimates (G, z) directly from pilots without forming a channel estimate,
and couples the detector with per-user LDPC decoders on a single factor
graph.
"""

__version__ = "0.1.0"

from .analysis import (ConvergenceReport, convergence_condition,
                       fixed_point_residuals, llr_mse_bound, llr_mse_empirical)
from .baselines import map_oracle, mmse_detect, qfunc, siso_awgn_ber
from .estimate import (PilotObservation, estimate_gram, estimate_z,
                       gram_observation_from_pilots, mmse_channel_estimate,
                       pilot_amplitude, receive_pilots)
from .hardening import (HardeningReport, eigenvalue_histogram, hardening_report,
                        mp_cdf, mp_density, mp_distance, mp_support)
from .harness import (BerCurve, BerPoint, OperationCount, SimConfig,
                      build_sweep_code, config_hash, count_operations,
                      resolve_profile, run_coded_sweep, run_uncoded_sweep)
from .joint import (JointConfig, JointResult, bits_to_symbols,
                    detect_then_decode, gather_bit_llrs, j_function,
                    j_inverse, joint_detect_decode, measure_exit_detector,
                    mutual_information_histogram)
from .ldpc import (TABLE_PROFILES, DegreeProfile, LdpcCode, SumProduct,
                   bp_decode_batch, build_code, code_from_parity_check,
                   encode, read_alist, regular_profile, write_alist)
from .model import draw_channels, gram, modulate, noise_variance, real_stack, receive
from .mpd import (BeliefState, GramObservation, MpdConfig, MpdEngine,
                  aitken_step, hard_decision, matched_filter, mpd_detect)

__all__ = [name for name in dir() if not name.startswith("_")]
