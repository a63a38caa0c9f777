"""Vulnerable applications (paper Table 2 + the Figure 1 example)."""

from repro.apps.vulnerable.common import (Scenario, VulnerableApp,
                                         unprotected_config)
from repro.apps.vulnerable.servers import BFTPD, QWIK_SMTPD
from repro.apps.vulnerable.traversal import GZIP_VULN, QWIKIWIKI, TAR
from repro.apps.vulnerable.web import PHPMYFAQ, PHPSYSINFO, PHP_STATS, SCRY

#: The eight Table 2 rows, in the paper's order.
TABLE2_APPS = (TAR, GZIP_VULN, QWIKIWIKI, SCRY, PHP_STATS, PHPSYSINFO,
               PHPMYFAQ, BFTPD)

#: The Figure 1 running example (not part of Table 2).
FIGURE1_APP = QWIK_SMTPD

__all__ = [
    "BFTPD", "FIGURE1_APP", "GZIP_VULN", "PHPMYFAQ", "PHPSYSINFO",
    "PHP_STATS", "QWIKIWIKI", "QWIK_SMTPD", "SCRY", "Scenario",
    "TABLE2_APPS", "TAR", "VulnerableApp", "unprotected_config",
]
