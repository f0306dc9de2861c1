package starts

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"

	"repro/internal/langmodel"
)

// This file implements the protocol on the wire: a minimal line-oriented
// exchange in the spirit of STARTS metadata exports. The client sends
//
//	EXPORT
//
// and the server answers either
//
//	OK
//	<language model as one JSON document>
//
// or
//
//	ERR <message>
//
// The JSON payload is the langmodel persistence format.

// Server serves a Provider's exports over TCP.
type Server struct {
	provider Provider
	ln       net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// ListenAndServe starts an export server on addr ("127.0.0.1:0" picks a
// free port).
func ListenAndServe(p Provider, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("starts: listen: %w", err)
	}
	s := &Server{provider: p, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	//lint:ignore baregoroutine accept loop lives for the server, not a bounded fan-out; Close joins it via wg
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down and waits for in-flight handlers. Live
// connections are snapshotted under the lock and closed outside it —
// closing is network I/O, and handler teardown takes the same lock.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		//lint:ignore maporder shutdown close order over live peers is not observable output
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		//lint:ignore baregoroutine one handler per live connection is the server's lifecycle, not pool fan-out; Close joins via wg
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		switch strings.TrimSpace(line) {
		case "EXPORT":
			m, err := s.provider.Export()
			if err != nil {
				fmt.Fprintf(w, "ERR %s\n", err)
			} else {
				fmt.Fprintln(w, "OK")
				if _, err := m.WriteTo(w); err != nil {
					return
				}
			}
		case "QUIT":
			w.Flush()
			return
		default:
			fmt.Fprintf(w, "ERR unknown command\n")
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// FetchModel connects to a STARTS export server and retrieves its language
// model. Errors from non-cooperating providers come back as protocol
// errors.
func FetchModel(addr string) (*langmodel.Model, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("starts: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, "EXPORT"); err != nil {
		return nil, fmt.Errorf("starts: send: %w", err)
	}
	r := bufio.NewReader(conn)
	status, err := r.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("starts: read status: %w", err)
	}
	status = strings.TrimSpace(status)
	if strings.HasPrefix(status, "ERR") {
		return nil, fmt.Errorf("starts: remote: %s", strings.TrimSpace(strings.TrimPrefix(status, "ERR")))
	}
	if status != "OK" {
		return nil, fmt.Errorf("starts: unexpected status %q", status)
	}
	m, err := langmodel.Read(r)
	if err != nil {
		return nil, fmt.Errorf("starts: payload: %w", err)
	}
	return m, nil
}
