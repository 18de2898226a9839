"""Self-tests of the benchmark run against the checkout's own library."""

import common

common.require_library()
