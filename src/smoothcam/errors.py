"""Exception types shared across the library."""


class SmoothCamError(Exception):
    """Base class for every error this library raises on purpose."""


class ShapeError(SmoothCamError):
    """Array or layer dimensions are inconsistent."""


class ParamError(SmoothCamError):
    """A parameter value is outside its legal range."""


class FormatError(SmoothCamError):
    """A file does not conform to its expected format."""


class LengthError(SmoothCamError):
    """A binary payload has the wrong size."""


class UnknownLayerError(SmoothCamError):
    """A layer name does not exist in the model."""


class NonConvLayerError(SmoothCamError):
    """The named layer is not a convolution layer."""


class NonFiniteMapError(SmoothCamError):
    """A computed map holds NaN or infinity, so it cannot be written."""
