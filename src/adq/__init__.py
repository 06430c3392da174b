"""Activation-density driven mixed-precision quantization and pruning for
small convolutional networks, with analytical and processing-in-memory
energy models."""

from adq.admon import ADHistory, ADRecord
from adq.energy import (EnergyReport, LayerShape, analytical_layer_energy,
                        analytical_network_energy, mac_count, mem_accesses,
                        pim_network_energy, pim_round_bits,
                        training_complexity)
from adq.errors import (AdqError, ConfigurationError, InputError,
                        TrainingDiverged, UsageError)
from adq.nn.arch import LayerSpec, NetworkArch
from adq.nn.data import Dataset, load_directory, synthetic_dataset
from adq.nn.engine import (OptimConfig, TrainState, accuracy, backward,
                           forward, init_state, loss_softmax_xent,
                           optimizer_step)
from adq.quant import (NetworkQuantizer, QuantParams, RangeTracker,
                       dequantize, fake_quant, quantize)
from adq.scheduler import (ScheduleConfig, ScheduleLog, build_quantizer,
                           propagate_skip_bitwidths,
                           run_schedule, select_pruned_channels,
                           update_bitwidths, update_channels)

__version__ = "0.1.0"
