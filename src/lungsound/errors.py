"""Shared exception taxonomy.

DataError covers unreadable or inconsistent inputs (bad files, stale caches,
mismatched label vectors) and maps to CLI exit code 2. NonFiniteLoss signals a
numerical failure during training and maps to exit code 3.
"""


class LungSoundError(Exception):
    pass


class DataError(LungSoundError):
    pass


# -- audio decoding ------------------------------------------------------

class MalformedHeader(DataError):
    pass


class UnsupportedEncoding(DataError):
    pass


class EmptyAudio(DataError):
    pass


# -- feature extraction --------------------------------------------------

class SignalTooShort(DataError):
    pass


class DegenerateFilter(LungSoundError):
    pass


# -- tensors / model -----------------------------------------------------

class ShapeMismatch(LungSoundError):
    pass


class StaleTrace(LungSoundError):
    pass


class DegenerateInput(LungSoundError):
    pass


# -- dataset -------------------------------------------------------------

class MalformedName(DataError):
    pass


class MalformedCsv(DataError):
    pass


class UnknownPatient(DataError):
    pass


class NoUsableData(DataError):
    pass


class ConfigHashMismatch(DataError):
    pass


class SplitCacheMismatch(DataError):
    pass


# -- evaluation ----------------------------------------------------------

class LengthMismatch(DataError):
    pass


class OutOfRangeLabel(DataError):
    pass


class EmptyEvaluation(DataError):
    pass


# -- training ------------------------------------------------------------

class NonFiniteLoss(LungSoundError):
    pass
