// Package retry stands in for internal/retry: its Exchange is the one
// function outside a RoundTrip method that may hold a response.
package retry

import (
	"io"
	"net/http"
)

func Exchange(c *http.Client, req *http.Request, handle func(status int, h http.Header, body io.Reader) error) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		_ = resp.Body.Close()
	}()
	return handle(resp.StatusCode, resp.Header, resp.Body)
}
