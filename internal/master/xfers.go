package master

import (
	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/xfer"
)

// This file is the master's side of the transfer flight recorder: it
// keeps client-reported records (the client-side dial/ack phases of
// every read and write) in its own bounded log and fans GetTransfers
// out to every live worker so one call yields the cluster-wide
// data-path view that "octopus-cli transfers" renders.

// TransferLog exposes the master's transfer flight recorder (which
// holds client-reported records) for the HTTP endpoint and tests.
func (m *Master) TransferLog() *xfer.Log { return m.xfers }

// ReportTransfers ingests transfer records a client recorded locally,
// mirroring ReportSpans: clients push at the end of an operation so
// their side of the data path survives the client process. Untraced:
// the reporting call itself is bookkeeping, not a namespace operation.
func (s *Service) ReportTransfers(args *rpc.ReportTransfersArgs, _ *rpc.ReportTransfersReply) (err error) {
	defer s.m.trackOpUntraced("reportTransfers", args.ReqID)(&err)
	for _, r := range args.Records {
		// The master's log assigns its own sequence numbers; a
		// client-local Seq would corrupt the cursor ordering.
		r.Seq = 0
		s.m.xfers.Append(r)
	}
	return nil
}

// GetTransfers serves one page of transfer records from every source:
// the master's client-reported log plus each live worker's recorder.
// Cursors are per source, so pollers resume each source from its own
// Page.Next. A worker that fails to answer contributes its error
// instead of failing the whole call — a partial cluster view beats
// none. Untraced: pollers would churn the trace store.
func (s *Service) GetTransfers(args *rpc.LogArgs, reply *rpc.GetTransfersReply) (err error) {
	m := s.m
	defer m.trackOpUntraced("getTransfers", args.ReqID)(&err)
	workers := fanOut(m, func(id core.WorkerID, addr string) rpc.TransferSource {
		src := rpc.TransferSource{Source: "worker:" + string(id)}
		if err := rpc.Dump(addr, rpc.OpTransferDump, args, &src.LogReply); err != nil {
			m.cfg.Logger.Warn("transfer fan-out failed", "worker", id, "err", err)
			src.Err = err.Error()
			src.Page.Next = args.Since
		}
		return src
	})
	reply.Sources = append([]rpc.TransferSource{
		{Source: "master", LogReply: rpc.ReadLog(m.xfers, args)},
	}, workers...)
	return nil
}
