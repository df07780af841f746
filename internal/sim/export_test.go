package sim

import "delphi/internal/node"

// SentMsgs returns how many committed deliveries originated at from.
func (h *History) SentMsgs(from node.ID) int64 { return h.sent[from] }

// Commits returns how many epoch commits the run has performed — the
// observable the determinism tests pin.
func (h *History) Commits() int { return h.commits }
