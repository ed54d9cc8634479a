"""16-bit PGM image I/O.

Images travel as P5 (binary) PGM files with maxval 65535.  Boundary
probability maps are stored by scaling [0, 1] floats to the full 16-bit
range; ground-truth label images store their integer labels directly.
"""

import numpy as np

from .crag import real_array
from .errors import DegenerateInput

MAXVAL = 65535


def _read_tokens(data, count):
    """Pull `count` whitespace-separated header tokens off `data`.

    Comment lines (``#`` to end of line) can appear anywhere in a PGM
    header.  Returns the tokens and the offset of the byte right after
    the single whitespace character that terminates the last token.
    """
    tokens = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace() and data[i : i + 1] != b"#":
            i += 1
        if i == start:
            raise DegenerateInput("truncated PGM header")
        tokens.append(data[start:i])
    if i >= n or not data[i : i + 1].isspace():
        raise DegenerateInput("PGM header not terminated by whitespace")
    return tokens, i + 1


def read_pgm(path):
    """Read a 16-bit P5 PGM file into a (height, width) uint16 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, offset = _read_tokens(data, 4)
    if tokens[0] != b"P5":
        raise DegenerateInput(f"not a binary PGM file: magic {tokens[0]!r}")
    if not all(t.isdigit() for t in tokens[1:]):
        raise DegenerateInput(
            f"PGM size and maxval must be decimal digits: {tokens[1:]}"
        )
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:  # a number past Python's int-string digit limit
        raise DegenerateInput(f"PGM size or maxval too long: {exc}") from exc
    if maxval != MAXVAL:
        raise DegenerateInput(f"expected maxval {MAXVAL}, found {maxval}")
    expected = width * height * 2
    raster = data[offset : offset + expected]
    if len(raster) != expected:
        raise DegenerateInput(
            f"raster holds {len(raster)} bytes, header promises {expected}"
        )
    return np.frombuffer(raster, dtype=">u2").reshape(height, width).astype(np.uint16)


def write_pgm(path, image):
    """Write a (height, width) integer array as 16-bit P5 PGM."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise DegenerateInput(f"expected a 2-d image, got shape {image.shape}")
    # written so that NaN fails too; an empty image has no value to check
    if image.size and not (image.min() >= 0 and image.max() <= MAXVAL):
        raise DegenerateInput("pixel values outside [0, 65535]")
    height, width = image.shape
    header = f"P5\n{width} {height}\n{MAXVAL}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.astype(">u2").tobytes())


def read_probability(path):
    """Read a PGM and rescale to floats in [0, 1]."""
    return read_pgm(path).astype(np.float64) / MAXVAL


def write_probability(path, values):
    """Scale [0, 1] floats to 16-bit and write as PGM.  The values go
    through crag.real_array, so strings, ragged rows and complex values
    raise DegenerateInput."""
    values = real_array(values, "probability map")
    # written so that NaN fails too
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise DegenerateInput("probability values non-finite or outside [0, 1]")
    write_pgm(path, np.rint(values * MAXVAL).astype(np.uint16))


def read_labels(path):
    """Read a PGM of integer region labels."""
    return read_pgm(path).astype(np.int64)


def write_labels(path, labels):
    """Write integer region labels as PGM (labels must fit in 16 bits)."""
    write_pgm(path, labels)
