package binaa

import "delphi/internal/node"

// Done reports whether all rounds have completed.
func (e *Engine) Done() bool { return e.done }

// Round returns the engine's current round (1-based).
func (e *Engine) Round() int { return e.round }

// Process wraps an Engine as a standalone node.Process that outputs the
// final weights map and halts. Used by the tests.
type Process struct {
	cfg    Config
	inputs map[IID]float64
	eng    *Engine
	env    node.Env
}

var _ node.Process = (*Process)(nil)

// NewProcess returns a standalone BinAA process.
func NewProcess(cfg Config, inputs map[IID]float64) (*Process, error) {
	p := &Process{cfg: cfg, inputs: inputs}
	eng, err := NewEngine(cfg, inputs, p.finish)
	if err != nil {
		return nil, err
	}
	p.eng = eng
	return p, nil
}

// Engine returns the process's engine.
func (p *Process) Engine() *Engine { return p.eng }

func (p *Process) finish(weights map[IID]float64) {
	p.env.Output(weights)
	p.env.Halt()
}

// Init implements node.Process.
func (p *Process) Init(env node.Env) {
	p.env = env
	p.eng.Start(env)
}

// Deliver implements node.Process.
func (p *Process) Deliver(from node.ID, m node.Message) {
	switch msg := m.(type) {
	case *Echo1:
		p.eng.HandleEcho1(from, msg)
	case *Echo2:
		p.eng.HandleEcho2(from, msg)
	case *Echo1C:
		p.eng.HandleEcho1C(from, msg)
	case *Echo2C:
		p.eng.HandleEcho2C(from, msg)
	}
}
