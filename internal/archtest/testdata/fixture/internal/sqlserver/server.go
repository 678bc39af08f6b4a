package sqlserver

// execute as it stood before the server's row cap was the collect's: the
// statement was rendered for its hash, then re-planned under a Limit.
func (s *Server) execute(query string, out *bufio.Writer) (planHash uint64, n int, err error) {
	df, err := s.ctx.SQL(query)
	if err != nil {
		return 0, 0, err
	}
	if planHash, err = df.PlanHash(); err != nil {
		return 0, 0, err
	}
	if s.MaxRows > 0 {
		if df, err = df.Limit(s.MaxRows); err != nil {
			return planHash, 0, err
		}
	}
	rows, err := df.CollectContext(context.Background())
	return planHash, len(rows), err
}
