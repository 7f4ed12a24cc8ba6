package core

import "sftree/internal/nfv"

// OPAPassRunner prepares the stage-one state for the instance and
// returns a closure that executes one full stage-two pass on a fresh
// copy of it. The preparation cost (MSA, APSP warm-up) is paid once,
// so the closure isolates the OPA pass itself. It exists so that
// out-of-package benchmark harnesses (cmd/sftbench -json via
// internal/benchsuite) can measure the same operation as
// BenchmarkOPAPass in bench_test.go.
func OPAPassRunner(net *nfv.Network, task nfv.Task, opts Options) (func() error, error) {
	net.Metric()
	st, _, err := runMSA(net, task, opts)
	if err != nil {
		return nil, err
	}
	return func() error {
		c := st.clone()
		_, err := runOPAPass(c, opts, 1)
		return err
	}, nil
}
