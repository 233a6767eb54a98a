"""Class-discriminative saliency maps for small convolutional networks.

Implements smooth-gradcampp (noise-averaged higher-order CAM weighting)
alongside its baselines: gradcampp, gradcam, smoothgrad, and plain
sensitivity maps, with layer, feature-map, and neuron-level selection.
"""

from .errors import (
    FormatError,
    LengthError,
    NonConvLayerError,
    NonFiniteMapError,
    ParamError,
    ShapeError,
    SmoothCamError,
    UnknownLayerError,
)
from .gradients import (
    GradientTriple,
    ScoreMode,
    finite_diff_input_grad,
    finite_diff_layer_grad,
    grad_wrt_input,
    grad_wrt_layer,
    higher_order_triple,
)
from .imageio import (
    RgbImage,
    colormap,
    heat_image,
    overlay,
    read_ppm,
    to_input_tensor,
    write_map_csv,
    write_ppm,
)
from .modelio import build_fixture, detector_scene, load_model, save_model
from .network import (
    ActivationTrace,
    LayerSpec,
    Model,
    conv_layer,
    dense_layer,
    flatten_layer,
    forward,
    list_conv_layers,
    maxpool_layer,
    relu_layer,
    softmax_layer,
    validate,
)
from .saliency import (
    NeuronSelection,
    SaliencyMap,
    SaliencyRequest,
    apply_selection,
    cam_map,
    compute_alpha,
    gradcam_weights,
    gradcampp_weights,
    postprocess,
    run,
    smooth_triple,
    smoothgrad_map,
)
from .tensor import (
    Tensor,
    add_gaussian_noise,
    as_tensor,
    bilinear_resize,
    conv2d,
    dense,
    maxpool2d,
    relu,
    softmax,
)

__version__ = "0.1.0"
