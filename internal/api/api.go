// Package api is the typed, versioned wire vocabulary of the
// simulator's distributed surface. Every structure that crosses a
// process boundary lives here — the campaign job identity (Scale,
// Knobs, Job and its fingerprint derivation), the adaptive-precision
// block, the run-journal event record, the attribution report, the
// fleet protocol a coordinator speaks to its workers, and the mmmd
// service request/response bodies — so that mmmd, mmmtail, the
// Dispatcher/Worker pair and the tests all share one definition
// instead of hand-rolling per-command structs.
//
// The package sits below internal/campaign: campaign aliases these
// types (type Job = api.Job, ...), so existing call sites keep
// compiling while the wire contract has a single owner. HTTP routes
// carrying these bodies are served only under PathPrefix ("/v1"); the
// pre-versioning unversioned spellings are gone.
package api

// PathPrefix is the route prefix of the current API generation: every
// mmmd API endpoint and the worker's fleet endpoints are served under
// it.
const PathPrefix = "/v1"
