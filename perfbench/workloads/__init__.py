"""The benchmark's workloads, one module each, keyed by CLI name."""

from workloads import flow_flood, job_stream, tenant_mix, zone_shards

WORKLOADS = {
    "job-stream": job_stream,
    "tenant-mix": tenant_mix,
    "flow-flood": flow_flood,
    "zone-shards": zone_shards,
}
