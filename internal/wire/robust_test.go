package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rowenc"
)

// rawConn dials the server without the client library, for sending
// malformed traffic.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func handshake(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := writeMsg(conn, 0, []byte("raw")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readMsg(conn); err != nil {
		t.Fatal(err)
	}
}

// TestServerSurvivesMalformedFrames throws hostile byte streams at the
// server; it must drop the connection or answer with an error, never
// crash, and must keep serving well-formed clients afterwards.
func TestServerSurvivesMalformedFrames(t *testing.T) {
	_, addr, _ := startServer(t)

	attacks := [][]byte{
		// Zero-length frame.
		{0, 0, 0, 0},
		// Giant declared length.
		{0xff, 0xff, 0xff, 0xff},
		// Length larger than payload actually sent (connection then
		// closed mid-frame by the deferred cleanup).
		{0xe8, 0x03, 0, 0, OpQuery},
		// Unknown opcode.
		{2, 0, 0, 0, 0xEE, 0x01},
		// Truncated rowenc payload for an op that decodes fields.
		{3, 0, 0, 0, OpOpen, 0x50, 0x50},
	}
	for i, attack := range attacks {
		conn := rawConn(t, addr)
		handshake(t, conn)
		if _, err := conn.Write(attack); err != nil {
			t.Fatalf("attack %d write: %v", i, err)
		}
		// Read whatever comes back (error reply or EOF); just don't hang.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		var hdr [4]byte
		_, _ = io.ReadFull(conn, hdr[:])
		conn.Close()
	}

	// The server is still healthy for real clients.
	c := dial(t, addr, "survivor")
	fd, err := c.PCreat("/after-attacks", core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PWrite(fd, []byte("still serving")); err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}
	attr, err := c.Stat("/after-attacks", 0)
	if err != nil || attr.Size != 13 {
		t.Fatalf("post-attack stat: %+v %v", attr, err)
	}
}

// TestServerRejectsOversizeFrameDeclaration confirms the length guard.
func TestServerRejectsOversizeFrameDeclaration(t *testing.T) {
	_, addr, _ := startServer(t)
	conn := rawConn(t, addr)
	handshake(t, conn)
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], maxMessage+1)
	hdr[4] = OpQuery
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	n, _ := conn.Read(buf)
	// Either an error frame or a dropped connection is acceptable; a
	// hang is not (the deadline catches that as a timeout error, which
	// also passes — the point is the server did not allocate 4 GB).
	_ = n
}

// TestRemoteStats exercises the monitoring path: the operational
// gauges a served database reports through the inv_metrics catalog.
func TestRemoteStats(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr, "mon")
	fd, err := c.PCreat("/s", core.CreateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PClose(fd); err != nil {
		t.Fatal(err)
	}
	rows := metricRows(t, c)
	if findMetric(t, rows, "buffer.capacity_pages", "") == 0 || findMetric(t, rows, "catalog.relations", "") == 0 {
		t.Fatalf("stats look empty: %+v", rows)
	}
	if findMetric(t, rows, "txn.last_commit_unix_ns", "") == 0 {
		t.Fatal("no commit time recorded")
	}
}

// TestRetiredTelemetryOpcodes pins the retirement of the stats (21),
// statsv2 (23) and waitprofile (25) ops: with or without a trace
// context, each gets a clean unknown-opcode error reply, and the same
// connection goes on serving. Their numbers stay reserved, so the ops
// around them keep their wire values.
func TestRetiredTelemetryOpcodes(t *testing.T) {
	if OpSetType != 22 || OpScrub != 24 {
		t.Fatalf("OpSetType = %d, OpScrub = %d; want 22 and 24", OpSetType, OpScrub)
	}
	_, addr, _ := startServer(t)
	conn := rawConn(t, addr)
	handshake(t, conn)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	for _, op := range []byte{21, 23, 25} {
		// Unnamed, so no per-op histogram and no inv_stat_ops row.
		if name := OpName(op); name != fmt.Sprintf("op%d", op) {
			t.Errorf("retired op %d still named %q", op, name)
		}
		for _, traced := range []bool{false, true} {
			kind, payload := op, []byte(nil)
			if traced {
				kind |= opTraceFlag
				payload = appendTraceCtx(nil, traceCtx{Hi: 1, Lo: 2, Parent: 3, Sampled: true})
			}
			if err := writeMsg(conn, kind, payload); err != nil {
				t.Fatal(err)
			}
			status, resp, err := readMsg(conn)
			if err != nil {
				t.Fatalf("op %d traced=%v: %v", op, traced, err)
			}
			rerr := decodeErrFrame(resp)
			if status != statusErr || !strings.Contains(rerr.Msg, "unknown opcode") {
				t.Fatalf("op %d traced=%v: status %d %q, want an unknown-opcode error", op, traced, status, rerr.Msg)
			}
		}
	}
	if err := writeMsg(conn, OpStat, rowenc.NewWriter(16).String("/").Int64(0).Done()); err != nil {
		t.Fatal(err)
	}
	status, resp, err := readMsg(conn)
	if err != nil || status != statusOK {
		t.Fatalf("stat after retired ops: status %d err %v (%q)", status, err, resp)
	}
	if _, err := decodeAttrWire(resp); err != nil {
		t.Fatalf("stat reply: %v", err)
	}
}
