// Package server is the public surface of the hbspd prediction service: an
// http.Handler exposing the LogGP prediction engines over HTTP/JSON with a
// fingerprint-keyed result cache, singleflight request coalescing,
// queue-depth load shedding and graceful drain. Command hbspd wraps it in a
// standalone daemon.
//
// # API
//
// POST /v1/predict evaluates one prediction (JSON response) or a sweep
// (NDJSON stream, one PredictPoint per line in row-major axis order). The
// request names a machine profile — a cluster preset, a full custom profile
// validated through cluster.Profile.Validate, or raw pairwise
// latency/gap/beta/overhead matrices — a workload (collective, sync,
// stencil or sim.Program op-stream), an optional fault.Plan and sweep axes
// over P, payload bytes and LogGP parameter scalings.
//
// GET /v1/presets lists the profile presets, GET /healthz reports liveness
// (503 while draining), GET /metrics renders the JSON counters.
//
// # Caching
//
// Results are cached in a bounded LRU keyed by
//
//	(profile fingerprint, fault-plan fingerprint, normalized workload,
//	 procs, seed, ack mode, engine, collapse mode, perRank, trace)
//
// where the fingerprints are the stable content hashes of
// cluster.Profile.Fingerprint and fault.Plan.Fingerprint — two spellings of
// the same machine share an entry, and any parameter change (including sweep
// scalings, which are fingerprinted post-scaling) invalidates by key
// construction. Cached bodies are the rendered bytes, so hits are
// byte-identical to the evaluation that filled them; cache status rides in
// the X-Hbspd-Cache header (hit | miss | coalesced), never in the body.
//
// # Errors
//
// Every error response is {"error":{"code","status","message"}} with code
// one of invalid_request, invalid_machine, invalid_fault, deadline (408),
// shed (429, with Retry-After), aborted (499) or internal. Mid-stream sweep
// errors arrive as a final NDJSON line of the same shape after the 200
// header.
package server

import (
	iserver "hbsp/internal/server"
)

// Config tunes a Server; the zero value of each field selects its default.
type Config = iserver.Config

// Server is the prediction service handler.
type Server = iserver.Server

// Wire types of POST /v1/predict.
type (
	PredictRequest = iserver.PredictRequest
	ProfileSpec    = iserver.ProfileSpec
	CustomProfile  = iserver.CustomProfile
	TopologySpec   = iserver.TopologySpec
	LinkSpec       = iserver.LinkSpec
	CoreSpec       = iserver.CoreSpec
	LevelSpec      = iserver.LevelSpec
	MatrixProfile  = iserver.MatrixProfile
	Matrix         = iserver.Matrix
	WorkloadSpec   = iserver.WorkloadSpec
	OpSpec         = iserver.OpSpec
	OptionsSpec    = iserver.OptionsSpec
	SweepSpec      = iserver.SweepSpec
	ScaleSpec      = iserver.ScaleSpec
)

// Response types.
type (
	PredictPoint    = iserver.PredictPoint
	TimesSummary    = iserver.TimesSummary
	CollapseInfo    = iserver.CollapseInfo
	PathInfo        = iserver.PathInfo
	HopInfo         = iserver.HopInfo
	BreakdownInfo   = iserver.BreakdownInfo
	CategoryTotal   = iserver.CategoryTotal
	MetricsSnapshot = iserver.MetricsSnapshot
)

// New builds a Server.
func New(cfg Config) *Server { return iserver.New(cfg) }
