"""Exception hierarchy shared by the codec modules.

Each class carries the CLI's exit code for it: usage errors exit 2,
format/digest errors 3, numeric failures 4, any other codec error 1.
"""


class CodecError(Exception):
    """Base class for all codec errors."""

    exit_code = 1


class FormatError(CodecError):
    """Unsupported or malformed file content (WAV encoding, bad magic, ...)."""

    exit_code = 3


class DigestError(FormatError):
    """Artifact was produced under a different configuration."""


class FramingError(FormatError):
    """A file shorter than its header, or a bitstream payload of the wrong length."""


class ConfigError(CodecError):
    """Invalid or inconsistent configuration values."""

    exit_code = 2


class NumericError(CodecError):
    """Non-finite values where finite ones are required."""

    exit_code = 4
