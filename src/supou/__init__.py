"""supOU processes: simulation and two-step GMM estimation."""

from .errors import (
    DataError,
    DomainError,
    InitializationError,
    ParameterError,
    QuadratureError,
    SingularWeightingError,
    WeightingMatrixError,
)
from .params import (
    ModelKind,
    ObservationSchedule,
    ParamVector,
    PiSpec,
    annualize,
    has_long_memory,
)
from .moments import (
    MomentSet,
    gamma_mix_integral,
    intsupou_acov,
    intsupou_mean,
    intsupou_var,
    quadrature_moments,
    supou_acf,
    supou_acov,
    supou_mean,
    supou_var,
    sv_sqret_acov,
    sv_sqret_mean,
    sv_sqret_var,
)
from .simulate import (
    JumpStream,
    LevySpec,
    PathSample,
    SimulationConfig,
    evaluate_supou,
    integrate_supou,
    levy_moments,
    sample_jump_stream,
    simulate_path,
    simulate_sv_logreturns,
)
from .descriptive import (
    SeriesSummary,
    demean,
    histogram,
    normal_qq_points,
    sample_acf,
    sample_acov,
    sample_mean,
    sample_var,
    series_summary,
)
from .gmm import (
    GmmResult,
    MomentConditionSet,
    closed_form_init,
    default_conditions,
    estimate_weighting,
    initial_estimate,
    minimize,
    moment_function_int,
    moment_function_supou,
    moment_function_sv,
    objective,
    sample_moments,
    transform,
    two_step_gmm,
    untransform,
)

__version__ = "0.1.0"
