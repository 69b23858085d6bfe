SELECT join_week, UserUsage(@current_week, join_week, base, growth, vol) AS usage
FROM users
WHERE join_week < @current_week
