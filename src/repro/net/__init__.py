"""IPv6 data-plane substrate: addresses, packets, packet batches and
libpcap capture files.

The telescope and scanner ecosystem are built on this package.  Addresses
are int-backed (128-bit Python ints) with helpers to aggregate to the /48
and /64 granularities the paper uses throughout, packets are lightweight
frozen dataclasses, and captures export as standard libpcap files.
"""
