"""Multi-cell millimeter-wave hybrid-beamforming system-level simulator."""

from .allocation import (Allocation, AllocationInputs, AllocMode,
                         allocate, build_candidates)
from .beamsweep import BeamPairLink, initial_association, sweep
from .channel import (MultiPanelChannel, Paths, assemble_channel,
                      ingest_paths, synthesize_paths, ula_steering,
                      ura_steering)
from .codebook import (EstimationGrid, FullCodebook, SectorCodebook,
                       build_sector_codebook, default_full_codebook,
                       estimation_grid, full_codebook, resolution)
from .csi import quantize_paths
from .errors import (CapacityError, ConfigurationError,
                     DimensionMismatchError, GuardRailError,
                     RankDeficiencyError, SimError, TraceParseError,
                     TraceReferenceError)
from .metrics import (LinkReport, network_report, summarize, throughput)
from .precoder import GnbPrecoderState, rf_stage, zf_stage
from .runner import (CampaignResult, desk_scale_config, emit, run_campaign)
from .scenario import (Deployment, NetworkConfig, apply_overrides,
                       generate_deployment, load_config)

__version__ = "0.1.0"
