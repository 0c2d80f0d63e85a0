import re

import pytest

from obcast.reporting import BoundReport


@pytest.mark.parametrize("kind", ["proved", "Exact", ""])
def test_a_report_rejects_an_unknown_certificate_kind(kind):
    with pytest.raises(ValueError, match=re.escape(f"unknown certificate kind {kind!r}")):
        BoundReport(id="x", paper_ref="-", computed=0.5, expected=None, tolerance=0.0, certificate=kind, passed=True)
