"""Embed labelled transition systems into Petri net reachability graphs.

The pipeline: decide embeddability via regions (exact integer arithmetic),
synthesize witnessing nets, search minimum-alphabet label splittings when an
LTS does not embed as-is, and generate subset-sum gadget LTSs whose known
answers exercise the whole stack end to end.
"""
