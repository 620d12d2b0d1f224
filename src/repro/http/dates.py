"""HTTP-date parsing and formatting (RFC 9110 §5.6.7).

The preferred format is IMF-fixdate (``Sun, 06 Nov 1994 08:49:37 GMT``);
parsers must also accept the obsolete RFC 850 and asctime forms.  All
values are UTC.  We convert to/from POSIX timestamps (floats), which is
what the simulator clock speaks.
"""

from __future__ import annotations

import calendar
import math
import time
from email.utils import parsedate_to_datetime
from functools import lru_cache

__all__ = ["format_http_date", "parse_http_date"]

_IMF_FIXDATE = "%a, %d %b %Y %H:%M:%S GMT"
_RFC850 = "%A, %d-%b-%y %H:%M:%S GMT"
_ASCTIME = "%a %b %d %H:%M:%S %Y"


def format_http_date(timestamp: float) -> str:
    """Format a POSIX timestamp as an IMF-fixdate string.

    An HTTP date has one-second resolution and ``gmtime`` floors to the
    second, so the string is memoized per whole second: every response
    a page load gets within one second shares one ``strftime``.

    >>> format_http_date(784111777.0)
    'Sun, 06 Nov 1994 08:49:37 GMT'
    >>> format_http_date(784111777.999)
    'Sun, 06 Nov 1994 08:49:37 GMT'
    """
    return _format_second(math.floor(timestamp))


@lru_cache(maxsize=1024)
def _format_second(second: int) -> str:
    return time.strftime(_IMF_FIXDATE, time.gmtime(second))


@lru_cache(maxsize=256)
def parse_http_date(value: str) -> float:
    """Parse any of the three HTTP date formats to a POSIX timestamp.

    Raises :class:`ValueError` on malformed input (never memoized, so it
    raises every time).  Valid values are memoized: ``strptime`` is slow
    and a run revalidates against the same few dates over and over.

    >>> parse_http_date('Sun, 06 Nov 1994 08:49:37 GMT')
    784111777.0
    >>> parse_http_date('Sunday, 06-Nov-94 08:49:37 GMT')
    784111777.0
    >>> parse_http_date('Sun Nov  6 08:49:37 1994')
    784111777.0
    """
    value = value.strip()
    for fmt in (_IMF_FIXDATE, _RFC850, _ASCTIME):
        try:
            parsed = time.strptime(value, fmt)
        except ValueError:
            continue
        return float(calendar.timegm(parsed))
    # email.utils is more lenient (e.g. numeric timezones); last resort.
    try:
        dt = parsedate_to_datetime(value)
    except (TypeError, ValueError, IndexError):
        raise ValueError(f"unparsable HTTP date: {value!r}") from None
    if dt.tzinfo is None:
        return float(calendar.timegm(dt.timetuple()))
    return dt.timestamp()
