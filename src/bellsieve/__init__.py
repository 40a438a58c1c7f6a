"""bellsieve: two-photon linear-optics simulation in which the pump beam's
transverse parity controls Hong-Ou-Mandel interference, enabling Bell-state
analysis in the coincidence basis."""

from .analysis import (
    DEFAULT_SIGMA_L,
    Detector,
    DetectorLayout,
    DiscriminationReport,
    OverlapModel,
    SignatureTable,
    classify,
    coincidence_basis_only,
    event_distribution,
    hom_scan,
    layout_from_json,
    oracle_check,
    prepare_inputs,
    signature_table,
    success_probability,
)
from .hgmodes import (
    DEFAULT_WAIST,
    PHOTON_WAVELENGTH,
    PUMP_WAVELENGTH,
    DetectorPoint,
    HGMode,
    PumpProfile,
    coincidence_amplitude,
    gaussian_pump,
    hg01_pump,
    hg_field,
    hg_pump,
    hermite_poly,
    y_parity,
)
from .optics import (
    BeamSplitter,
    Circuit,
    CircuitSchemaError,
    Delay,
    Mirror,
    PolarizingBS,
    WavePlate,
    circuit_from_json,
    circuit_to_json,
    load_circuit,
    run_circuit,
    waveplate_jones,
)
from .oracle import oracle_apply, single_photon_unitary
from .twophoton import (
    ANTIDIAG,
    BELL_KINDS,
    DIAG,
    EVEN,
    H,
    ODD,
    V,
    PhotonMode,
    TwoPhotonState,
    attach_pump_parity,
    bell_state,
    equal_up_to_global_phase,
    hyper_state,
    inner_product,
    make_state,
    overlap,
    pol_pair_probs,
    rebase_all,
    rebase_path,
    rebase_paths,
)

__version__ = "0.1.0"
