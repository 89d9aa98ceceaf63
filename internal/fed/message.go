package fed

import "repro/internal/tensor"

// Kind discriminates the round-lifecycle message types on a Transport.
type Kind byte

// Message kinds. KindHello is a transport-level frame used only during wire
// connection setup (client identification: fresh, rejoining, or joining —
// and, since v5, the server's seat-assignment reply to a join); KindCatchup
// is the server's reply to a rejoin or join hello; KindLeave retires a seat
// cleanly; the remaining four are the §III-A round lifecycle.
const (
	KindHello       Kind = 0
	KindRoundStart  Kind = 1
	KindUpdate      Kind = 2
	KindGlobalModel Kind = 3
	KindRoundEnd    Kind = 4
	KindCatchup     Kind = 5
	KindLeave       Kind = 6
)

// Msg is one typed protocol message. The concrete types are RoundStart,
// Update, GlobalModel and RoundEnd.
type Msg interface {
	Kind() Kind
}

// RoundStart (server → client) opens one aggregation round of one task.
type RoundStart struct {
	TaskIdx int
	Round   int
	// Participate is false when the server's failure injection dropped the
	// client for this round: it skips local training and aggregation but
	// still acknowledges the round so the protocol stays in lockstep.
	Participate bool
	// TaskDone marks the task's final round: after it the client runs its
	// TaskEnd hook, the memory check, evaluation, and replies RoundEnd.
	TaskDone bool
}

// Kind identifies the message type.
func (*RoundStart) Kind() Kind { return KindRoundStart }

// Update (client → server) carries one round of local training: the flat
// parameter vector, the aggregation weight, and the device accounting the
// server folds into the synchronous-round clock. Over LoopbackTransport
// Params aliases the client's scratch buffer (zero copy); the client must
// not mutate it until the server's GlobalModel arrives.
type Update struct {
	ClientID int
	// Participating is false for a dropped-out client's empty acknowledgement;
	// such updates carry no parameters and are excluded from aggregation.
	Participating bool
	// Weight is the FedAvg aggregation weight (the client's training-sample
	// count for the task; zero is treated as one by WeightedFedAvg).
	Weight float64
	// Params is the dense parameter vector. Exactly one of Params and Sparse
	// is set on a participating update.
	Params []float32
	// Sparse carries the parameter vector in sparse form — coordinates not
	// stored are zero. A masked update (ρ-pruned knowledge, a delta against
	// a shared reference) costs O(active knowledge) to ship and aggregate
	// instead of O(model); the wire codec also decodes its sparse frames to
	// this form so the server reduces them without densifying.
	Sparse *tensor.SparseVec
	// BaseVersion is the version of the global model the client trained this
	// update from (the Version of the last GlobalModel it installed; 0 before
	// any install — the shared initial model). The synchronous scheduler
	// ignores it; the asynchronous scheduler uses it to compute the update's
	// staleness (current global version − BaseVersion) for staleness
	// weighting and the -max-staleness rejection bound.
	BaseVersion uint64
	// ComputeSeconds is the simulated device time for this round's local
	// iterations (work / device throughput).
	ComputeSeconds float64
	// UpBytes / DownBytes are the round's communication payloads in each
	// direction: dense model bytes plus the strategy's extra traffic.
	UpBytes   int64
	DownBytes int64
}

// Kind identifies the message type.
func (*Update) Kind() Kind { return KindUpdate }

// ParamLen returns the logical parameter-vector length in either
// representation (0 for a dropped-out acknowledgement).
func (u *Update) ParamLen() int {
	if u.Sparse != nil {
		return u.Sparse.N
	}
	return len(u.Params)
}

// GlobalModel (server → client) broadcasts the aggregated flat parameter
// vector. Under the synchronous scheduler it goes to the round's
// participants and Params may alias aggregator scratch over
// LoopbackTransport, which is only rewritten after every participant has
// acknowledged the round. Under the asynchronous scheduler every commit is
// broadcast to every alive client and Params is a per-commit copy that is
// never mutated afterwards (versioned commit buffers), so frames queued
// behind a training client stay intact.
//
// A commit is encoded once: while Server.broadcast walks the seats, the
// message carries the server's shared frame (the unexported field below).
// The first WireTransport.Send that meets it encodes header and payload into
// it and every later link with the same Compression writes those bytes, so a
// commit costs one encode and one write per link instead of one encode per
// link. The field rides on the message — not on Transport — so it passes
// through any decorator that forwards Send(m) unchanged. Only the broadcast
// helper arms it, and it disarms it before returning: a GlobalModel built by
// anyone else (a client's install, a test, a decoder) carries none and
// encodes per link. Receivers never see it — a decoded message is built
// without it, and the loopback transport passes the pointer through without
// reading the field.
type GlobalModel struct {
	Params []float32
	// Version is the global model's commit version: 0 for the shared initial
	// model, incremented by one at every aggregation commit. Versions are
	// monotone over a run (they do not reset at task boundaries).
	Version uint64
	// TaskFinal marks the task's closing broadcast under the asynchronous
	// scheduler: after installing it the client evaluates and replies
	// RoundEnd. It re-announces the latest committed version, so a TaskFinal
	// frame may repeat the Version of the preceding commit. Always false
	// under the synchronous scheduler (lockstep clients use
	// RoundStart.TaskDone instead).
	TaskFinal bool

	// frame is the broadcast's shared frame; nil outside Server.broadcast.
	frame *sharedFrame
}

// sharedFrame is the one wire frame of one broadcast: header and payload in
// one buffer the Server owns and reuses across commits. It is written once —
// by the first wire link of the broadcast, on the scheduler goroutine — and
// only read after that.
type sharedFrame struct {
	buf    []byte
	comp   Compression // the compression buf was encoded with
	filled bool        // buf holds the current broadcast's message
}

// Kind identifies the message type.
func (*GlobalModel) Kind() Kind { return KindGlobalModel }

// RoundEnd (client → server) closes a task for one client: task-aware
// accuracy on every learned task, or a death report when the device ran out
// of memory (the heterogeneity study's eviction path).
type RoundEnd struct {
	ClientID int
	// Dead reports that the client OOMed at this task; it sends nothing
	// further and EvalAccs is nil.
	Dead bool
	// EvalAccs[p] is the client's accuracy on task p, for p ≤ the task just
	// finished.
	EvalAccs []float64
}

// Kind identifies the message type.
func (*RoundEnd) Kind() Kind { return KindRoundEnd }

// Catchup (server → client) is the reply to a rejoin or join hello:
// everything a client splicing into the asynchronous round lifecycle needs —
// a rejoiner keeps its local training state, a joiner starts from the
// current committed global. The server sends it once, on the fresh
// connection (for a join, right after the seat-assignment hello), before the
// normal message flow resumes.
type Catchup struct {
	// TaskIdx is the task currently being scheduled — the rejoining client
	// may have missed task boundaries (and their RoundStart announcements)
	// while it was gone, so the catch-up re-announces the position.
	TaskIdx int
	// Seen is how many of this client's uploads the server has already
	// received for the current task — the round index to resume from. An
	// upload lost in flight when the connection died is simply retrained:
	// the server's count is authoritative.
	Seen int
	// Version is the current committed global-model version.
	Version uint64
	// Params is the current committed global model, the catch-up payload a
	// stale client installs before resuming. Empty when there is nothing
	// newer than the client's last-seen version (or nothing has been
	// committed yet): the client keeps its local parameters.
	Params []float32
	// TaskFinal reports that the task's collect phase already closed and
	// the task-final broadcast went out while the client was gone: Params
	// is that final global, and the client should install it, evaluate,
	// and reply RoundEnd instead of training further rounds.
	TaskFinal bool
	// TaskDone reports that this seat already completed the task (its
	// RoundEnd was received before the connection dropped): the client
	// installs Params to stay current and waits for the next task's
	// RoundStart.
	TaskDone bool
}

// Kind identifies the message type.
func (*Catchup) Kind() Kind { return KindCatchup }

// Leave (client → server) retires a seat cleanly: the client is done
// federating and will send nothing further. Unlike a transport failure —
// which the asynchronous scheduler treats as an eviction (logged, counted,
// recorded in Result.DeadAfter) — a leave is a normal membership event: the
// seat's books close, its folded-but-uncommitted updates stand, the commit
// weighting renormalizes over the remaining live set at the next commit,
// and nothing is recorded as dead. The seat ID is never reused, so the
// departed client may later rejoin it with the v4 rejoin handshake.
type Leave struct {
	// ClientID is the departing seat; it must match the link it arrives on
	// (the same anti-impersonation check every Update carries).
	ClientID int
}

// Kind identifies the message type.
func (*Leave) Kind() Kind { return KindLeave }
