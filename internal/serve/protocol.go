package serve

import (
	"fmt"
	"time"

	"spaceproc/internal/cluster"
)

// Wire protocol: gob frames over a persistent TCP connection, one request
// at a time per connection (a client that wants parallelism opens several
// connections, which is also how per-client quotas are exercised).
//
// Per request the exchange is
//
//	client: header{Client, Frames, Width, Height, Deadline}
//	server: response{Status: Accepted | Shed | Draining | Error}
//	client: Frames x *dataset.Image   (only after Accepted)
//	server: response{Status: OK | Error, Result}
//
// Admission is decided on the header alone, before the payload is on the
// wire: a shed request costs the network a few hundred bytes, not the
// multi-megabyte baseline. Shed and Draining responses carry a RetryAfter
// hint the client honors as the floor of its backoff.
//
// Pixels cross as little-endian bytes, exactly 2 per pixel: the gob codec
// of dataset.Pixels, so peers must run the same build of that type. Every
// read is therefore budgeted from what the reader already knows. The
// server reads a header within maxHeaderBytes and each frame within its
// declared W·H·2 pixel bytes plus maxHeaderBytes, each once it starts
// arriving within the receive timeout; the wait for the next header is
// unbounded. The client reads the verdict within maxHeaderBytes and the
// result within its image's pixel bytes, the Rice payload's worst case
// and maxHeaderBytes.

// Status is the server's verdict in a response frame.
type Status int

// Status values deliberately start at 1: gob omits zero-valued fields, so
// a zero-valued status would vanish from the wire and a receiver decoding
// into a reused struct would see the previous exchange's verdict.
const (
	// StatusAccepted admits the request; the client must now stream the
	// baseline's frames.
	StatusAccepted Status = iota + 1
	// StatusShed rejects the request for load (global inflight limit or
	// per-client quota); RetryAfter hints when to try again.
	StatusShed
	// StatusDraining rejects the request because the daemon is shutting
	// down; retrying reaches this instance only if the drain aborts, so
	// clients should treat it like Shed.
	StatusDraining
	// StatusOK carries the processed result.
	StatusOK
	// StatusError carries a terminal server-side failure (invalid header,
	// pipeline error); retrying the same request will not help.
	StatusError
)

// String renders the status for logs and errors.
func (s Status) String() string {
	switch s {
	case StatusAccepted:
		return "accepted"
	case StatusShed:
		return "shed"
	case StatusDraining:
		return "draining"
	case StatusOK:
		return "ok"
	case StatusError:
		return "error"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Trace stage names for the serve tier, in request order. Together with
// the pool's stages (cluster.StageRun and friends) they make up the
// vocabulary of one end-to-end trace: client_request spans the whole
// Process call, client_attempt each try (including sheds and failovers),
// serve_request the daemon's handling, forward each fleet hop, and
// admission / receive / queue_wait / batch / respond the daemon's
// internal phases.
const (
	StageClientRequest = "client_request"
	StageClientAttempt = "client_attempt"
	StageServeRequest  = "serve_request"
	StageAdmission     = "admission"
	StageReceive       = "receive"
	StageQueueWait     = "queue_wait"
	StageBatch         = "batch"
	StageForward       = "forward"
	StageRespond       = "respond"
)

// header opens one request.
type header struct {
	// Client identifies the submitter for quota accounting and per-client
	// telemetry; empty falls back to the connection's remote host.
	Client string
	// Key pins the request's consistent-hash placement when it crosses a
	// fleet router (e.g. a dataset ID, so one dataset's baselines land on
	// one node's cache); empty falls back to Client, keeping each
	// client's traffic on one node.
	Key string
	// Frames is the number of readout frames about to be streamed.
	Frames int
	// Width and Height are the frame dimensions.
	Width, Height int
	// Deadline is the absolute processing cut-off (zero for none); the
	// server derives its pipeline context from it, so client deadlines
	// propagate into pool scheduling.
	Deadline time.Time
	// TraceID and SpanID carry the client's trace position so the server
	// continues one distributed trace instead of starting its own. Zero
	// means untraced — safe on the wire even though gob omits zero fields,
	// because the server decodes into a fresh header per request (unlike
	// Status, these fields have a meaningful zero).
	TraceID uint64
	SpanID  uint64
}

// Request sanity bounds; headers outside them are answered StatusError.
const (
	// MaxFrames bounds readouts per baseline.
	MaxFrames = 4096
	// MaxEdge bounds frame width and height.
	MaxEdge = 16384
)

// payloadBytes is the in-memory size the header's payload decodes to:
// Frames x Width x Height pixels at 2 bytes each. Admission checks it
// against the server's request byte budget.
func (h header) payloadBytes() int64 {
	return int64(h.Frames) * int64(h.Width) * int64(h.Height) * 2
}

// validate rejects nonsensical or abusive headers before any payload is
// accepted.
func (h header) validate() error {
	switch {
	case h.Frames <= 0 || h.Frames > MaxFrames:
		return fmt.Errorf("serve: %d frames outside (0, %d]", h.Frames, MaxFrames)
	case h.Width <= 0 || h.Width > MaxEdge:
		return fmt.Errorf("serve: width %d outside (0, %d]", h.Width, MaxEdge)
	case h.Height <= 0 || h.Height > MaxEdge:
		return fmt.Errorf("serve: height %d outside (0, %d]", h.Height, MaxEdge)
	}
	return nil
}

// response is both the admission verdict and the final result frame.
type response struct {
	Status Status
	// RetryAfter accompanies Shed and Draining: the server's hint for how
	// long the client should wait before retrying.
	RetryAfter time.Duration
	// Err accompanies StatusError.
	Err string
	// Result accompanies StatusOK. Its image is the request's size; a
	// client fails the attempt on any other.
	Result *Result
}

// Result is one served baseline's output: the repaired, integrated frame,
// its Rice-compressed downlink payload, and the fault-forensics counters
// the pipeline collected along the way. Its Err is nil on every served
// result; failures travel as StatusError.
type Result = cluster.Result
